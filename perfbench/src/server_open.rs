//! `server_open`: load on a fixed schedule against the server alone.
//! Payloads are `Z_b` at the `stem` split, precomputed from the seeded
//! images, so the edge does no compute and the server runs the backbone
//! tail plus both heads: the mux, queue, micro-batching, admission control
//! and server compute do all the work.
//!
//! Latency is taken open-loop at [`REFERENCE_RATE`], below the knee, with
//! every request timed from when it was due, not from when it was sent, so
//! a stall also charges the requests queued behind it. Throughput is what
//! the server completes with [`SATURATION_DEPTH`] requests kept in flight.
//! The traced run also climbs the [`LADDER`] of rates to find the highest
//! one whose p99 meets [`LATENCY_LIMIT_MS`] with no growing backlog.
//!
//! The whole process — server and load driver — runs pinned to one CPU:
//! a wake-up sent to an idle second CPU of a virtual machine waits on the
//! hypervisor, which made the p99 of unpinned runs vary several-fold from
//! run to run. Throughput is therefore the capacity of one CPU.
//!
//! One thread drives the connection: it writes each request at its due
//! time and, in between, reads answers on the non-blocking socket, yielding
//! the CPU to the server on every pass. It never sleeps (a sleeping pacer
//! wakes too late for sub-millisecond latencies). An open-loop window whose
//! pacer ran late by more than [`LAG_SHARE`] of the latency limit at p99 is
//! measured again, and flagged if it keeps lagging.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mtlsplit_obs as obs;
use mtlsplit_serve::{
    Frame, FrameAssembler, OpCode, Received, SplitVariant, DEFAULT_MAX_BODY_BYTES,
};
use mtlsplit_split::{Precision, TensorCodec};
use mtlsplit_tensor::Tensor;

use crate::checks::{classify_response, counted_latency, Outcome, Tally};
use crate::deploy::{self, Counters, Serving};
use crate::metrics::Report;
use crate::spans::{self, bench_span, SpanStore};
use crate::stats::{median, ms, quantile, sorted, windowed_p99, Slots};
use crate::RunConfig;

/// Offered rates of the ladder, requests per second, ascending.
pub const LADDER: [f64; 8] = [
    1000.0, 2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0, 14000.0,
];
/// Rate at which the latency metrics are taken, below the knee.
pub const REFERENCE_RATE: f64 = 2000.0;
/// The p99 latency limit a ladder rate must meet, in ms.
pub const LATENCY_LIMIT_MS: f64 = 2.0;
/// Largest pacer lateness at p99, as a share of the latency limit, that an
/// open-loop window may have before it is measured again and, if it still
/// lags, flagged.
pub const LAG_SHARE: f64 = 0.25;
/// Requests kept in flight while measuring throughput: enough for the
/// server to batch, far below where admission control sheds.
pub const SATURATION_DEPTH: u64 = 16;
/// Share of an untraced run spent at the reference rate; the throughput
/// window gets the rest.
const REFERENCE_SHARE: f64 = 0.6;
/// Requests in flight beyond which an open-loop rate counts as a growing
/// backlog and the driver stops sending, well before admission control
/// would shed.
const MAX_IN_FLIGHT: u64 = 128;
/// Pre-encoded request frames; request ids cycle through them.
const SLOTS: usize = 1024;
/// Times a lagging window is measured again before the run is discarded.
const LAG_RETRIES: usize = 2;
/// Closed-loop requests each set-up sends.
const WARMUP_REQUESTS: usize = 200;

/// The precomputed requests and their reference answers.
struct Bank {
    /// Slot `s` carries request id `s + 1` and payload `s % inputs`.
    frames: Vec<Vec<u8>>,
    expected: Vec<Vec<Tensor>>,
    bytes_up: usize,
}

impl Bank {
    fn new(seed: u64) -> Result<Self, String> {
        let inputs = deploy::images(seed, deploy::SERVING_INPUTS)?;
        let expected = deploy::references(seed, &inputs)?;
        let model = deploy::build_model(seed)?;
        let stage = stem_stage(&model)?;
        let (edge, _) =
            mtlsplit_core::split_for_serving_at(model, stage).map_err(|e| e.to_string())?;
        let prefix = edge.into_layer();
        let codec = TensorCodec::new(Precision::Float32);
        let payloads = inputs
            .iter()
            .map(|x| {
                prefix
                    .infer(x)
                    .map(|z| codec.encode(&z))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let frames = (0..SLOTS)
            .map(|s| {
                let body = payloads[s % payloads.len()].encode();
                Frame::new(OpCode::InferRequest, s as u64 + 1, body).encode()
            })
            .collect();
        Ok(Self {
            frames,
            expected,
            bytes_up: payloads[0].wire_bytes(),
        })
    }

    fn expected_for(&self, slot: usize) -> &[Tensor] {
        &self.expected[slot % self.expected.len()]
    }
}

fn stem_stage(model: &mtlsplit_core::MtlSplitModel) -> Result<usize, String> {
    model
        .backbone()
        .stages()
        .iter()
        .position(|s| s.label == "stem")
        .ok_or_else(|| "the backbone has no stem stage".to_string())
}

/// The server with the stem-split variant, and one open connection to it;
/// the connection closes before the server stops.
struct Deployment {
    stream: TcpStream,
    serving: Serving,
    bytes_down: usize,
}

impl Deployment {
    fn start(seed: u64, bank: &Bank) -> Result<Self, String> {
        let io = |e: std::io::Error| e.to_string();
        let model = deploy::build_model(seed)?;
        let stage = stem_stage(&model)?;
        let (_, server_half) =
            mtlsplit_core::split_for_serving_at(model, stage).map_err(|e| e.to_string())?;
        let (tail, heads) = server_half.into_parts();
        let tail = tail.ok_or("the stem split must leave a backbone tail")?;
        let variant = SplitVariant::with_tail(stage as u8, "stem", tail);
        let serving = Serving::start(heads, vec![variant])?;
        let mut stream = TcpStream::connect(serving.addr()).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(io)?;
        let mut bytes_down = 0;
        for i in 0..WARMUP_REQUESTS {
            let slot = i % SLOTS;
            stream.write_all(&bank.frames[slot]).map_err(io)?;
            let frame = Frame::read_from(&mut stream, DEFAULT_MAX_BODY_BYTES)
                .map_err(|e| e.to_string())?
                .ok_or("the server closed the connection during warm-up")?;
            match classify_response(&frame, TensorCodec::default(), bank.expected_for(slot)) {
                Outcome::Ok => {}
                other => return Err(format!("warm-up request {i}: {other:?}")),
            }
            bytes_down = mtlsplit_serve::wire::decode_response(&frame.body)
                .map_err(|e| e.to_string())?
                .iter()
                .map(|p| p.wire_bytes())
                .sum();
        }
        Ok(Self {
            stream,
            serving,
            bytes_down,
        })
    }
}

/// How a window offers load.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// `rate` requests per second on a fixed schedule, for `seconds`.
    Open { rate: f64, seconds: f64 },
    /// `depth` requests kept in flight, for `seconds`.
    Closed { depth: u64, seconds: f64 },
}

/// One measured window.
struct Window {
    load: Load,
    sent: u64,
    tally: Tally,
    first_failure: Option<String>,
    /// Latency of every request, ns, in send order: from its due time
    /// (open loop) or its send time (closed loop). A shed or failed
    /// request is infinitely late.
    by_due: Vec<f64>,
    /// The same, ascending.
    latencies: Vec<f64>,
    /// How late the pacer sent each open-loop request, ns, ascending.
    lag: Vec<f64>,
    /// The open-loop driver stopped sending: too many requests in flight.
    backlog: bool,
    /// Completions per second and server CPU per completion, per second.
    slots: Slots,
    start: Counters,
    end: Counters,
}

impl Window {
    fn p99_ns(&self) -> f64 {
        windowed_p99(&self.by_due)
    }

    fn meets_limit(&self) -> bool {
        !self.backlog && self.p99_ns() <= LATENCY_LIMIT_MS * 1e6
    }

    fn lag_p99_ns(&self) -> f64 {
        quantile(&self.lag, 0.99)
    }

    fn lag_ok(&self) -> bool {
        self.lag_p99_ns() <= LAG_SHARE * LATENCY_LIMIT_MS * 1e6
    }

    fn summary(&self) -> String {
        format!(
            "{:?} sent {} ok {} shed {} failed {} p50 {:.4}ms p99 {:.4}ms lag_p99 {:.4}ms \
             backlog {} completed {:.1}/s",
            self.load,
            self.sent,
            self.tally.ok,
            self.tally.shed,
            self.tally.failed,
            ms(quantile(&self.latencies, 0.5)),
            ms(self.p99_ns()),
            ms(self.lag_p99_ns()),
            self.backlog,
            self.slots.rate()
        )
    }
}

/// Runs one window on the deployment's connection, switched to
/// non-blocking for the window. With a store, the span rings are drained
/// every 10 ms.
fn run_window(
    deployment: &Deployment,
    bank: &Bank,
    load: Load,
    store: Option<&mut SpanStore>,
) -> Result<Window, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut stream = deployment.stream.try_clone().map_err(io)?;
    stream.set_nonblocking(true).map_err(io)?;
    let window = drive(&mut stream, bank, load, store);
    stream.set_nonblocking(false).map_err(io)?;
    window
}

/// The load driver's loop: send what is due, read what has arrived.
fn drive(
    stream: &mut TcpStream,
    bank: &Bank,
    load: Load,
    mut store: Option<&mut SpanStore>,
) -> Result<Window, String> {
    let codec = TensorCodec::default();
    let (total, period_ns, seconds) = match load {
        Load::Open { rate, seconds } => ((rate * seconds).round() as u64, 1e9 / rate, seconds),
        Load::Closed { seconds, .. } => (u64::MAX, 0.0, seconds),
    };
    let budget = Duration::from_secs_f64(seconds);
    // Request `k` occupies slot `k % SLOTS`; `MAX_IN_FLIGHT` < `SLOTS`
    // keeps a slot from being reused while its request is unanswered.
    let mut slot_k = vec![0u64; SLOTS];
    let mut slot_start = vec![None::<Instant>; SLOTS];
    let mut assembler = FrameAssembler::new(DEFAULT_MAX_BODY_BYTES);
    let mut buffer = vec![0u8; 256 * 1024];
    let mut lag = Vec::new();
    let mut latencies: Vec<(u64, f64)> = Vec::new();
    let mut tally = Tally::default();
    let mut first_failure = None;
    // The frame being written: (slot, bytes already written).
    let mut writing: Option<(usize, usize)> = None;
    let (mut next, mut sent, mut answered) = (0u64, 0u64, 0u64);
    let mut stopped = false;
    let mut backlog = false;
    let start = Counters::now();
    let server_cpu = || crate::sys::process_cpu().saturating_sub(crate::sys::thread_cpu());
    let mut slots = Slots::start(server_cpu());
    let t0 = Instant::now();
    let due = |k: u64| t0 + Duration::from_nanos((k as f64 * period_ns) as u64);
    let mut last_progress = t0;
    let mut last_drain = t0;
    loop {
        let now = Instant::now();
        // Send everything that may go now before reading answers, so
        // requests due together reach the server together.
        loop {
            let now = Instant::now();
            let mut progressed = false;
            if writing.is_none() && !stopped {
                let slot = (next % SLOTS as u64) as usize;
                match load {
                    Load::Open { .. } if next >= total => stopped = true,
                    Load::Open { .. } if now >= due(next) => {
                        lag.push((now - due(next)).as_nanos() as f64);
                        if next - answered >= MAX_IN_FLIGHT {
                            backlog = true;
                            stopped = true;
                        } else {
                            slot_start[slot] = Some(due(next));
                            writing = Some((slot, 0));
                        }
                    }
                    Load::Closed { .. } if now.duration_since(t0) >= budget => stopped = true,
                    Load::Closed { depth, .. } if next - answered < depth => {
                        slot_start[slot] = Some(now);
                        writing = Some((slot, 0));
                    }
                    _ => {}
                }
                if writing.is_some() {
                    slot_k[slot] = next;
                    next += 1;
                }
            }
            if let Some((slot, written)) = writing {
                let _span = bench_span("bench.send", slot_k[slot]);
                let frame = &bank.frames[slot];
                match stream.write(&frame[written..]) {
                    Ok(n) if written + n == frame.len() => {
                        writing = None;
                        sent += 1;
                        progressed = true;
                    }
                    Ok(n) => writing = Some((slot, written + n)),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => return Err(format!("send: {e}")),
                }
            }
            if writing.is_some() || stopped || !progressed {
                break;
            }
        }
        match stream.read(&mut buffer) {
            Ok(0) => return Err("the server closed the connection".to_string()),
            Ok(n) => {
                let arrived = Instant::now();
                last_progress = arrived;
                assembler.push(&buffer[..n]);
                while let Some(message) = assembler.next_frame().map_err(|e| e.to_string())? {
                    let frame = match message {
                        Received::Frame(frame) => frame,
                        Received::Rejected { error, .. } => {
                            return Err(format!("unreadable answer: {error}"));
                        }
                    };
                    let slot = frame
                        .request_id
                        .checked_sub(1)
                        .filter(|&s| s < SLOTS as u64)
                        .ok_or_else(|| format!("answer to unknown id {}", frame.request_id))?
                        as usize;
                    let k = slot_k[slot];
                    let started = slot_start[slot]
                        .take()
                        .ok_or_else(|| format!("second answer to request {k}"))?;
                    let _span = bench_span("bench.receive", k);
                    let outcome = classify_response(&frame, codec, bank.expected_for(slot));
                    let elapsed = arrived.saturating_duration_since(started).as_nanos() as f64;
                    latencies.push((k, counted_latency(&outcome, elapsed)));
                    if outcome != Outcome::Ok && first_failure.is_none() {
                        first_failure = Some(format!("request {k}: {outcome:?}"));
                    }
                    tally.record(&outcome);
                    answered += 1;
                }
                slots.tick(answered, server_cpu);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if answered < sent && last_progress.elapsed() > Duration::from_secs(10) {
                    return Err("no answer for 10 s".to_string());
                }
            }
            Err(e) => return Err(format!("receive: {e}")),
        }
        if stopped && writing.is_none() && answered >= sent {
            break;
        }
        if let Some(store) = store.as_deref_mut() {
            let left = budget.saturating_sub(now.duration_since(t0));
            if now.duration_since(last_drain) >= Duration::from_millis(10)
                && left.as_nanos() as u64 > spans::FINAL_UNDRAINED_NS
            {
                store.drain();
                last_drain = now;
            }
        }
        std::thread::yield_now();
    }
    let end = Counters::now();
    latencies.sort_by_key(|&(k, _)| k);
    let by_due: Vec<f64> = latencies.iter().map(|&(_, l)| l).collect();
    Ok(Window {
        load,
        sent,
        tally,
        first_failure,
        latencies: sorted(by_due.clone()),
        by_due,
        lag: sorted(lag),
        backlog,
        slots,
        start,
        end,
    })
}

/// [`run_window`], counted against the report. An open-loop window whose
/// pacer lagged is measured again, up to [`LAG_RETRIES`] times; if every
/// try lags, the least-lagging one is kept and flagged on stderr and in
/// the report. A ladder rate that misses the limit is kept as it is: a
/// late pacer offers less load, never more.
fn run_checked(
    deployment: &Deployment,
    bank: &Bank,
    load: Load,
    report: &mut Report,
    mut store: Option<&mut SpanStore>,
    ladder: bool,
) -> Result<Window, String> {
    let mut lagging: Option<Window> = None;
    for attempt in 0..=LAG_RETRIES {
        let window = run_window(deployment, bank, load, store.as_deref_mut())?;
        report.attempted += window.sent;
        report.failed += window.tally.unsuccessful();
        if let (Some(reason), true) = (&window.first_failure, window.tally.failed > 0) {
            report.fail_check(reason.clone());
        }
        let open = matches!(load, Load::Open { .. });
        if !open || window.lag_ok() || (ladder && !window.meets_limit()) {
            return Ok(window);
        }
        report.note(&format!("lagging_window_{attempt}"), window.summary());
        if lagging
            .as_ref()
            .is_none_or(|w| window.lag_p99_ns() < w.lag_p99_ns())
        {
            lagging = Some(window);
        }
    }
    let kept = lagging.expect("every attempt lagged");
    let flag = format!(
        "the pacer lagged {:.3} ms at p99, over {}% of the {LATENCY_LIMIT_MS} ms limit, in \
         {} windows of {load:?}; the least-lagging one is kept",
        ms(kept.lag_p99_ns()),
        LAG_SHARE * 100.0,
        LAG_RETRIES + 1
    );
    eprintln!("perfbench: warning: {flag}");
    report.note("generator_lag_flagged", flag);
    Ok(kept)
}

/// The ladder: ascending rates until the first that misses the limit.
/// Returns the highest rate that met it, moved up towards the first
/// failing rate by where the p99 crosses the limit between the two.
fn ladder(
    deployment: &Deployment,
    bank: &Bank,
    seconds_per_rate: f64,
    report: &mut Report,
) -> Result<f64, String> {
    let mut best: Option<(f64, Window)> = None;
    for rate in LADDER {
        let load = Load::Open {
            rate,
            seconds: seconds_per_rate,
        };
        let window = run_checked(deployment, bank, load, report, None, true)?;
        report.note(&format!("ladder_{rate}"), window.summary());
        if !window.meets_limit() {
            return Ok(match best {
                Some((pass_rate, pass)) => {
                    pass_rate + crossing(&pass, &window) * (rate - pass_rate)
                }
                None => 0.0,
            });
        }
        best = Some((rate, window));
    }
    Ok(LADDER[LADDER.len() - 1])
}

/// Where, as a share of the step from a passing to the next, failing rate,
/// the p99 reaches the limit, interpolated linearly in p99; a backlogged
/// rate, or a p99 above twice the limit, counts as twice the limit.
fn crossing(pass: &Window, fail: &Window) -> f64 {
    let limit = LATENCY_LIMIT_MS * 1e6;
    let low = pass.p99_ns();
    let high = if fail.backlog {
        2.0 * limit
    } else {
        fail.p99_ns().min(2.0 * limit)
    };
    ((limit - low) / (high - low)).clamp(0.0, 1.0)
}

/// Per-layer figures of a reference-rate window.
fn report_reference_layers(
    report: &mut Report,
    window: &Window,
    deployment: &Deployment,
    bank: &Bank,
) {
    report.set("split.bytes_up_per_req", bank.bytes_up as f64);
    report.set("split.bytes_down_per_req", deployment.bytes_down as f64);
    deploy::server_layer_metrics(report, &deployment.serving.metrics());
    window
        .start
        .report_until(&window.end, report, window.tally.ok);
    report.set("bench.generator_lag_p99_ms", ms(window.lag_p99_ns()));
    report.set(
        "bench.error_rate",
        window.tally.unsuccessful() as f64 / window.sent.max(1) as f64,
    );
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    crate::sys::pin_to_one_cpu()?;
    let bank = Bank::new(config.seed)?;
    let (deployment, setups) = deploy::timed_setups(|| Deployment::start(config.seed, &bank))?;
    let mut report = Report::new();
    report.note("setup_s_each", format!("{setups:?}"));
    report.note(
        "schedule",
        format!(
            "reference {REFERENCE_RATE} req/s, throughput at {SATURATION_DEPTH} in flight, \
             ladder {LADDER:?} req/s against a p99 limit of {LATENCY_LIMIT_MS} ms, pacer lag \
             limit {}% of it",
            LAG_SHARE * 100.0
        ),
    );
    // A traced run spends a quarter each on the untraced and the traced
    // reference window and half on the ladder.
    let reference_seconds = if config.trace {
        config.seconds / 4.0
    } else {
        config.seconds * REFERENCE_SHARE
    };
    let reference_load = Load::Open {
        rate: REFERENCE_RATE,
        seconds: reference_seconds,
    };
    let reference = run_checked(&deployment, &bank, reference_load, &mut report, None, false)?;
    report.note("reference", reference.summary());
    report_reference_layers(&mut report, &reference, &deployment, &bank);
    let p99 = reference.p99_ns();
    if !p99.is_finite() {
        return Err(format!(
            "requests failed at the reference rate: {}",
            reference.summary()
        ));
    }
    let p50 = quantile(&reference.latencies, 0.5);
    report.set("setup_s", median(&setups));
    report.set("latency_p50_ms", ms(p50));
    report.set("latency_p99_ms", ms(p99));
    report.set("cpu_ms_per_op", reference.slots.cpu_ms_per_op());
    report.set("peak_rss_mb", crate::sys::peak_rss_mb());

    if config.trace {
        let mut store = SpanStore::default();
        obs::reset();
        obs::set_enabled(true);
        let traced = run_checked(
            &deployment,
            &bank,
            reference_load,
            &mut report,
            Some(&mut store),
            false,
        );
        obs::set_enabled(false);
        let traced = traced?;
        let trace_path = config
            .out_dir
            .as_ref()
            .map(|d| d.join(format!("server_open-seed{}.trace.json", config.seed)));
        report.note(
            "chrome_trace",
            spans::export_chrome_trace(trace_path.as_deref())?,
        );
        store.drain();
        spans::report_layers(&mut report, &store, traced.tally.ok);
        report.set(
            "trace.overhead_pct",
            (quantile(&traced.latencies, 0.5) / p50 - 1.0) * 100.0,
        );
        let per_rate = config.seconds / 2.0 / LADDER.len() as f64;
        let slo_rate = ladder(&deployment, &bank, per_rate, &mut report)?;
        report.set("serve.slo_rate_rps", slo_rate);
    } else {
        let load = Load::Closed {
            depth: SATURATION_DEPTH,
            seconds: config.seconds * (1.0 - REFERENCE_SHARE),
        };
        let saturated = run_checked(&deployment, &bank, load, &mut report, None, false)?;
        report.note("saturated", saturated.summary());
        report.set("throughput_per_s", saturated.slots.rate());
    }
    Ok(report)
}
