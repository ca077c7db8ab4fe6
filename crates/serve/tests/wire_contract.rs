//! The wire contract of the serving protocol, checked from outside the
//! crate.
//!
//! * **Golden bytes.** One `InferRequest` frame, one `Error` frame and one
//!   metrics body are pinned byte for byte, so any change to what a peer
//!   sees on the wire fails here first.
//! * **Mutation fuzzing.** One seeded harness mutates valid encodings
//!   (bit flips, byte overwrites, truncations, insertions) and feeds them
//!   to every wire decoder: `Frame::decode`, `FrameAssembler` fed in random
//!   fragments, `decode_response`, `decode_hello`,
//!   `decode_split_assignment`, `decode_metrics` and `WirePayload::decode`.
//!   No input may panic a decoder, and every value a decoder accepts must
//!   re-encode to exactly the bytes it was decoded from.

use mtlsplit_serve::wire::{
    decode_hello, decode_metrics, decode_response, decode_split_assignment, encode_hello,
    encode_metrics, encode_response, encode_split_assignment,
};
use mtlsplit_serve::{
    ErrorCode, Frame, FrameAssembler, HelloRequest, OpCode, PhaseStats, Received,
    ResilienceCounters, ServeMetrics, SplitAssignment, SplitRequests, DEFAULT_MAX_BODY_BYTES,
};
use mtlsplit_split::{Precision, TensorCodec, WirePayload};
use mtlsplit_tensor::{StdRng, Tensor};

/// One `InferRequest` frame: request id `0x0102030405060708` carrying the
/// `Float32` payload of the `[1, 2]` tensor `[0.5, -1.25]`.
const GOLDEN_INFER_REQUEST: [u8; 64] = [
    0x4d, 0x54, 0x4c, 0x53, // magic "MTLS"
    0x05, // version 5
    0x01, // op InferRequest
    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // request id
    0x2a, 0x00, 0x00, 0x00, // body length 42
    0xe9, 0xb0, 0x53, 0x89, // CRC-32
    0x00, // precision Float32
    0x02, // rank 2
    0x00, 0x00, 0x00, 0x00, // q_min 0.0
    0x00, 0x00, 0x80, 0x3f, // q_scale 1.0
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // dim 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // dim 2
    0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // data length 8
    0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0xa0, 0xbf, // 0.5, -1.25
];

/// One `Error` frame: request id 9, code `Overloaded`, message `"busy"`.
const GOLDEN_ERROR: [u8; 27] = [
    0x4d, 0x54, 0x4c, 0x53, // magic "MTLS"
    0x05, // version 5
    0x05, // op Error
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // request id 9
    0x05, 0x00, 0x00, 0x00, // body length 5
    0xee, 0xe8, 0x27, 0x82, // CRC-32
    0x03, // ErrorCode::Overloaded
    0x62, 0x75, 0x73, 0x79, // "busy"
];

/// One metrics response body: the snapshot built by [`golden_metrics`].
const GOLDEN_METRICS_BODY: [u8; 331] = [
    0x04, // codec version 4
    0x02, 0x00, 0x00, 0x00, // workers 2
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // requests 3
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // errors 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // evictions 0
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // batches 2
    0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // bytes in 100
    0x32, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // bytes out 50
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // wall seconds 1.5
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, // requests/s 2.0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // mean batch 1.5
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, // p50 0.25
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // p95 0.5
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, // p99 0.75
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // queue-wait count 3
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, // queue-wait mean 0.125
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, // queue-wait p50 0.125
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, // queue-wait p95 0.25
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, // queue-wait p99 0.25
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // decode count 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // decode mean, p50, p95, p99: 0.0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, // forward count 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // forward mean, p50, p95, p99: 0.0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, // encode count 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // encode mean, p50, p95, p99: 0.0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // one split entry
    0x02, // stage 2
    0x03, // label length 3
    0x67, 0x61, 0x70, // "gap"
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // split requests 3
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // shed 4
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // retries 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // reconnects 2
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // fallbacks 3
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // deadlines exhausted 4
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // breaker trips 5
    0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // faults injected 6
];
/// The metrics snapshot whose encoding is [`GOLDEN_METRICS_BODY`].
fn golden_metrics() -> ServeMetrics {
    ServeMetrics {
        workers: 2,
        requests: 3,
        errors: 1,
        batches: 2,
        bytes_in: 100,
        bytes_out: 50,
        shed: 4,
        wall_seconds: 1.5,
        requests_per_second: 2.0,
        mean_batch_size: 1.5,
        p50_latency_s: 0.25,
        p95_latency_s: 0.5,
        p99_latency_s: 0.75,
        queue_wait: PhaseStats {
            count: 3,
            mean_s: 0.125,
            p50_s: 0.125,
            p95_s: 0.25,
            p99_s: 0.25,
        },
        per_split: vec![SplitRequests {
            stage: 2,
            label: "gap".to_string(),
            requests: 3,
        }],
        resilience: ResilienceCounters {
            retries: 1,
            reconnects: 2,
            fallbacks: 3,
            deadlines_exhausted: 4,
            breaker_trips: 5,
            faults_injected: 6,
        },
        ..ServeMetrics::default()
    }
}

fn golden_payload() -> WirePayload {
    let z = Tensor::from_vec(vec![0.5, -1.25], &[1, 2]).expect("tensor");
    TensorCodec::new(Precision::Float32).encode(&z)
}

#[test]
fn encoders_reproduce_the_golden_wire_bytes() {
    let request = Frame::new(
        OpCode::InferRequest,
        0x0102_0304_0506_0708,
        golden_payload().encode(),
    );
    assert_eq!(request.encode(), GOLDEN_INFER_REQUEST);
    let error = Frame::error_coded(9, ErrorCode::Overloaded, "busy");
    assert_eq!(error.encode(), GOLDEN_ERROR);
    assert_eq!(encode_metrics(&golden_metrics()), GOLDEN_METRICS_BODY);
}

#[test]
fn decoders_accept_the_golden_wire_bytes() {
    let request = Frame::decode(&GOLDEN_INFER_REQUEST).expect("golden request");
    assert_eq!(request.op, OpCode::InferRequest);
    assert_eq!(request.request_id, 0x0102_0304_0506_0708);
    assert_eq!(
        WirePayload::decode(&request.body).expect("golden payload"),
        golden_payload()
    );
    let error = Frame::decode(&GOLDEN_ERROR).expect("golden error");
    assert_eq!(
        error.error_info(),
        (ErrorCode::Overloaded, "busy".to_string())
    );
    assert_eq!(
        decode_metrics(&GOLDEN_METRICS_BODY).expect("golden metrics"),
        golden_metrics()
    );
}

/// Mutations applied per fuzz round, drawn uniformly from 1 to this.
const MAX_MUTATIONS: usize = 3;

/// Applies one random mutation: flip a bit, overwrite a byte, truncate the
/// tail, or insert a random byte.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    match rng.below(4) {
        0 if !bytes.is_empty() => {
            let index = rng.below(bytes.len());
            bytes[index] ^= 1u8 << rng.below(8);
        }
        1 if !bytes.is_empty() => {
            let index = rng.below(bytes.len());
            bytes[index] = rng.below(256) as u8;
        }
        2 if !bytes.is_empty() => {
            let keep = rng.below(bytes.len());
            bytes.truncate(keep);
        }
        _ => {
            let index = rng.below(bytes.len() + 1);
            bytes.insert(index, rng.below(256) as u8);
        }
    }
}

/// The shared harness: `rounds` times, picks a template, mutates it 1 to
/// [`MAX_MUTATIONS`] times and hands the result to `check`. A panic inside
/// `check` — a decoder panic or a failed re-encode assertion — fails the
/// test with the round number and the offending bytes.
fn fuzz(seed: u64, templates: &[Vec<u8>], rounds: usize, mut check: impl FnMut(&[u8])) {
    let mut rng = StdRng::seed_from(seed);
    for round in 0..rounds {
        let mut bytes = templates[rng.below(templates.len())].clone();
        for _ in 0..1 + rng.below(MAX_MUTATIONS) {
            mutate(&mut bytes, &mut rng);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&bytes)));
        assert!(outcome.is_ok(), "round {round} panicked on {bytes:02x?}");
    }
}

/// Asserts that a decoder's accepted value re-encodes to its input.
fn assert_reencodes<T>(
    bytes: &[u8],
    decoded: Result<T, impl std::fmt::Debug>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    if let Ok(value) = decoded {
        assert_eq!(
            encode(&value),
            bytes,
            "accepted bytes must re-encode exactly"
        );
    }
}

fn payload_templates() -> Vec<WirePayload> {
    let mut rng = StdRng::seed_from(3);
    let z = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
    vec![
        golden_payload(),
        TensorCodec::new(Precision::Float32).encode(&z),
        TensorCodec::new(Precision::Quant8).encode(&z),
        TensorCodec::new(Precision::Quant8).encode(&Tensor::ones(&[1, 2, 2, 1])),
    ]
}

fn frame_templates() -> Vec<Frame> {
    vec![
        Frame::new(OpCode::InferRequest, 1, golden_payload().encode()),
        Frame::error_coded(2, ErrorCode::Overloaded, "busy"),
        Frame::new(OpCode::Ping, 3, Vec::new()),
        Frame::new(OpCode::MetricsResponse, 4, GOLDEN_METRICS_BODY.to_vec()),
    ]
}

#[test]
fn mutated_frames_never_panic_the_frame_decoder() {
    let templates: Vec<Vec<u8>> = frame_templates().iter().map(Frame::encode).collect();
    fuzz(0xF0_22, &templates, 10_000, |bytes| {
        assert_reencodes(bytes, Frame::decode(bytes), Frame::encode);
    });
}

#[test]
fn mutated_streams_never_panic_the_frame_assembler() {
    // The template is a whole stream of frames; each mutated stream is fed
    // in random fragments, and every frame cut from it must re-encode to
    // exactly the bytes the assembler consumed for it.
    let stream: Vec<u8> = frame_templates().iter().flat_map(Frame::encode).collect();
    let mut fragments = StdRng::seed_from(0xA55E);
    fuzz(0xA55E_3B1E, &[stream], 2_000, |bytes| {
        let mut assembler = FrameAssembler::new(DEFAULT_MAX_BODY_BYTES);
        let (mut pushed, mut consumed) = (0usize, 0usize);
        'stream: while pushed < bytes.len() {
            let end = (pushed + 1 + fragments.below(48)).min(bytes.len());
            assembler.push(&bytes[pushed..end]);
            pushed = end;
            loop {
                let before = assembler.buffered();
                match assembler.next_frame() {
                    Ok(None) => break,
                    Ok(Some(received)) => {
                        let taken = before - assembler.buffered();
                        if let Received::Frame(frame) = received {
                            assert_eq!(frame.encode(), &bytes[consumed..consumed + taken]);
                        }
                        consumed += taken;
                    }
                    // A desynchronized stream: the caller severs it.
                    Err(_) => break 'stream,
                }
            }
        }
    });
}

#[test]
fn mutated_bodies_never_panic_the_body_decoders() {
    let payloads = payload_templates();
    let responses: Vec<Vec<u8>> = vec![
        encode_response(&payloads),
        encode_response(&payloads[..1]),
        encode_response(&[]),
    ];
    fuzz(0xB0D1, &responses, 10_000, |bytes| {
        assert_reencodes(bytes, decode_response(bytes), |outputs| {
            encode_response(outputs)
        });
    });

    let hellos = vec![
        encode_hello(&HelloRequest {
            device_class: "weak-edge".to_string(),
            latency_budget_ms: 50.0,
        }),
        encode_hello(&HelloRequest {
            device_class: String::new(),
            latency_budget_ms: 0.0,
        }),
    ];
    fuzz(0x4E11, &hellos, 10_000, |bytes| {
        assert_reencodes(bytes, decode_hello(bytes), encode_hello);
    });

    let assignments = vec![encode_split_assignment(&SplitAssignment {
        stage: 2,
        label: "sep2".to_string(),
    })];
    fuzz(0xACC, &assignments, 10_000, |bytes| {
        assert_reencodes(
            bytes,
            decode_split_assignment(bytes),
            encode_split_assignment,
        );
    });

    let metrics = vec![
        GOLDEN_METRICS_BODY.to_vec(),
        encode_metrics(&ServeMetrics::default()),
    ];
    fuzz(0x3E7, &metrics, 10_000, |bytes| {
        assert_reencodes(bytes, decode_metrics(bytes), encode_metrics);
    });

    let encoded: Vec<Vec<u8>> = payloads.iter().map(WirePayload::encode).collect();
    fuzz(0x9A1, &encoded, 10_000, |bytes| {
        assert_reencodes(bytes, WirePayload::decode(bytes), WirePayload::encode);
    });
}
