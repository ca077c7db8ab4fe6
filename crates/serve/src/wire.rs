//! Body encodings layered on top of [`crate::frame::Frame`].
//!
//! An infer request body is exactly one [`WirePayload`] in the binary form
//! defined in `mtlsplit-split`. An infer response body is the per-task output
//! list:
//!
//! ```text
//! offset  size  field
//! 0       1     task count t
//! then, t times:
//!         4     payload length m, u32 little-endian
//!         m     one WirePayload in binary form
//! ```
//!
//! A metrics response body is one [`ServeMetrics`] snapshot
//! ([`encode_metrics`] / [`decode_metrics`]): a one-byte codec version
//! (always 4), the `u32` worker count, six `u64` counters (requests,
//! errors, evictions, batches, bytes in, bytes out), six `f64` gauges, the
//! four phase blocks (queue-wait, decode, forward, encode) — each a `u64`
//! count plus four `f64` quantile fields — then the per-split request
//! counts: a one-byte entry count, then per entry a one-byte stage index, a
//! length-prefixed label and a `u64` counter. A fixed tail closes the body:
//! the `u64` shed counter, then the six `u64` process-wide client
//! resilience counters (retries, reconnects, fallbacks, exhausted
//! deadlines, breaker trips, injected faults). Any other codec version is
//! rejected. All little-endian, decoded with an exact-consume check.
//!
//! The split-negotiation bodies live here too: a `Hello` body is a
//! [`HelloRequest`] ([`encode_hello`] / [`decode_hello`]), a `HelloAck`
//! body is a [`SplitAssignment`] ([`encode_split_assignment`] /
//! [`decode_split_assignment`]).

use mtlsplit_split::WirePayload;

use crate::error::{Result, ServeError};
use crate::metrics::{PhaseStats, ResilienceCounters, ServeMetrics, SplitRequests};

/// Version byte of the metrics snapshot codec, the only one accepted.
const METRICS_CODEC_VERSION: u8 = 4;

/// Exact encoded size of the fixed part of one metrics snapshot (before
/// the per-split entries; excludes the shed and resilience tail).
const METRICS_FIXED_BYTES: usize = 1 + 4 + 6 * 8 + 6 * 8 + 4 * (8 + 4 * 8);

/// Encodes the per-task output payloads of one response.
///
/// The task count travels as one byte; `InferenceServer::start` enforces
/// the matching ≤ 255 head limit at construction time.
pub fn encode_response(outputs: &[WirePayload]) -> Vec<u8> {
    debug_assert!(
        outputs.len() <= u8::MAX as usize,
        "response task count must fit in one byte"
    );
    let total: usize = outputs.iter().map(|p| 4 + p.wire_bytes()).sum();
    let mut body = Vec::with_capacity(1 + total);
    body.push(outputs.len() as u8);
    for payload in outputs {
        let encoded = payload.encode();
        body.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
        body.extend_from_slice(&encoded);
    }
    body
}

/// Decodes the per-task output payloads of one response body.
///
/// # Errors
///
/// Returns [`ServeError::Truncated`] if the body ends early and
/// [`ServeError::Split`] if an embedded payload is malformed.
pub fn decode_response(body: &[u8]) -> Result<Vec<WirePayload>> {
    if body.is_empty() {
        return Err(ServeError::Truncated { needed: 1, got: 0 });
    }
    let count = body[0] as usize;
    let mut outputs = Vec::with_capacity(count);
    let mut offset = 1usize;
    for _ in 0..count {
        if body.len() < offset + 4 {
            return Err(ServeError::Truncated {
                needed: offset + 4,
                got: body.len(),
            });
        }
        let len =
            u32::from_le_bytes(body[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        offset += 4;
        if body.len() < offset + len {
            return Err(ServeError::Truncated {
                needed: offset + len,
                got: body.len(),
            });
        }
        outputs.push(WirePayload::decode(&body[offset..offset + len])?);
        offset += len;
    }
    if offset != body.len() {
        return Err(ServeError::Truncated {
            needed: offset,
            got: body.len(),
        });
    }
    Ok(outputs)
}

/// Encodes one [`ServeMetrics`] snapshot as a metrics response body.
///
/// Both the per-split entry count and each label length travel as one byte;
/// the server's variant table is bounded far below 255 entries and labels
/// are short stage names.
pub fn encode_metrics(metrics: &ServeMetrics) -> Vec<u8> {
    debug_assert!(
        metrics.per_split.len() <= u8::MAX as usize,
        "per-split entry count must fit in one byte"
    );
    let mut body = Vec::with_capacity(
        METRICS_FIXED_BYTES
            + 1
            + metrics
                .per_split
                .iter()
                .map(|s| 1 + 1 + s.label.len() + 8)
                .sum::<usize>(),
    );
    body.push(METRICS_CODEC_VERSION);
    body.extend_from_slice(&(metrics.workers as u32).to_le_bytes());
    for counter in [
        metrics.requests,
        metrics.errors,
        metrics.evictions,
        metrics.batches,
        metrics.bytes_in,
        metrics.bytes_out,
    ] {
        body.extend_from_slice(&counter.to_le_bytes());
    }
    for gauge in [
        metrics.wall_seconds,
        metrics.requests_per_second,
        metrics.mean_batch_size,
        metrics.p50_latency_s,
        metrics.p95_latency_s,
        metrics.p99_latency_s,
    ] {
        body.extend_from_slice(&gauge.to_le_bytes());
    }
    for phase in [
        &metrics.queue_wait,
        &metrics.decode,
        &metrics.forward,
        &metrics.encode,
    ] {
        body.extend_from_slice(&phase.count.to_le_bytes());
        for value in [phase.mean_s, phase.p50_s, phase.p95_s, phase.p99_s] {
            body.extend_from_slice(&value.to_le_bytes());
        }
    }
    body.push(metrics.per_split.len() as u8);
    for split in &metrics.per_split {
        debug_assert!(
            split.label.len() <= u8::MAX as usize,
            "split label must fit in one length byte"
        );
        body.push(split.stage);
        body.push(split.label.len() as u8);
        body.extend_from_slice(split.label.as_bytes());
        body.extend_from_slice(&split.requests.to_le_bytes());
    }
    for counter in [
        metrics.shed,
        metrics.resilience.retries,
        metrics.resilience.reconnects,
        metrics.resilience.fallbacks,
        metrics.resilience.deadlines_exhausted,
        metrics.resilience.breaker_trips,
        metrics.resilience.faults_injected,
    ] {
        body.extend_from_slice(&counter.to_le_bytes());
    }
    body
}

/// Sequential bounds-checked little-endian reader over a frame body.
struct Cursor<'a> {
    body: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self.offset.checked_add(len).ok_or(ServeError::Truncated {
            needed: usize::MAX,
            got: self.body.len(),
        })?;
        if self.body.len() < end {
            return Err(ServeError::Truncated {
                needed: end,
                got: self.body.len(),
            });
        }
        let slice = &self.body[self.offset..end];
        self.offset = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self, what: &'static str) -> Result<String> {
        let len = self.u8()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ServeError::Malformed {
            what: format!("{what} is not UTF-8"),
        })
    }

    fn phase(&mut self) -> Result<PhaseStats> {
        Ok(PhaseStats {
            count: self.u64()?,
            mean_s: self.f64()?,
            p50_s: self.f64()?,
            p95_s: self.f64()?,
            p99_s: self.f64()?,
        })
    }

    /// Rejects trailing bytes after the last expected field.
    fn finish(&self) -> Result<()> {
        if self.offset != self.body.len() {
            return Err(ServeError::Truncated {
                needed: self.offset,
                got: self.body.len(),
            });
        }
        Ok(())
    }
}

/// Decodes a metrics response body back into a [`ServeMetrics`] snapshot.
///
/// # Errors
///
/// Returns [`ServeError::Truncated`] on any length mismatch and
/// [`ServeError::UnsupportedVersion`] on an unknown codec version byte.
pub fn decode_metrics(body: &[u8]) -> Result<ServeMetrics> {
    if body.is_empty() {
        return Err(ServeError::Truncated { needed: 1, got: 0 });
    }
    if body[0] != METRICS_CODEC_VERSION {
        return Err(ServeError::UnsupportedVersion { found: body[0] });
    }
    let mut cursor = Cursor {
        body,
        offset: 1usize,
    };
    let workers = cursor.u32()? as usize;
    let requests = cursor.u64()?;
    let errors = cursor.u64()?;
    let evictions = cursor.u64()?;
    let batches = cursor.u64()?;
    let bytes_in = cursor.u64()?;
    let bytes_out = cursor.u64()?;
    let wall_seconds = cursor.f64()?;
    let requests_per_second = cursor.f64()?;
    let mean_batch_size = cursor.f64()?;
    let p50_latency_s = cursor.f64()?;
    let p95_latency_s = cursor.f64()?;
    let p99_latency_s = cursor.f64()?;
    let queue_wait = cursor.phase()?;
    let decode = cursor.phase()?;
    let forward = cursor.phase()?;
    let encode = cursor.phase()?;
    let split_count = cursor.u8()? as usize;
    let mut per_split = Vec::with_capacity(split_count);
    for _ in 0..split_count {
        per_split.push(SplitRequests {
            stage: cursor.u8()?,
            label: cursor.string("split label")?,
            requests: cursor.u64()?,
        });
    }
    let shed = cursor.u64()?;
    let resilience = ResilienceCounters {
        retries: cursor.u64()?,
        reconnects: cursor.u64()?,
        fallbacks: cursor.u64()?,
        deadlines_exhausted: cursor.u64()?,
        breaker_trips: cursor.u64()?,
        faults_injected: cursor.u64()?,
    };
    cursor.finish()?;
    Ok(ServeMetrics {
        workers,
        requests,
        errors,
        evictions,
        shed,
        batches,
        bytes_in,
        bytes_out,
        wall_seconds,
        requests_per_second,
        mean_batch_size,
        p50_latency_s,
        p95_latency_s,
        p99_latency_s,
        queue_wait,
        decode,
        forward,
        encode,
        per_split,
        resilience,
    })
}

/// A client's split-negotiation opener: who it is and what it needs.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloRequest {
    /// Named device class from the deployment profile, e.g. `"weak-edge"`.
    pub device_class: String,
    /// The client's end-to-end latency budget in milliseconds (advisory;
    /// `0.0` means unconstrained).
    pub latency_budget_ms: f64,
}

/// The server's answer to a [`HelloRequest`]: where the client should cut
/// its backbone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitAssignment {
    /// Backbone stage index to split at (indexes `Backbone::stages()`).
    pub stage: u8,
    /// Stage label, for logs and sanity checks.
    pub label: String,
}

/// Encodes a [`HelloRequest`] as a `Hello` frame body: a length-prefixed
/// device-class string followed by the `f64` latency budget.
pub fn encode_hello(hello: &HelloRequest) -> Vec<u8> {
    debug_assert!(
        hello.device_class.len() <= u8::MAX as usize,
        "device class must fit in one length byte"
    );
    let mut body = Vec::with_capacity(1 + hello.device_class.len() + 8);
    body.push(hello.device_class.len() as u8);
    body.extend_from_slice(hello.device_class.as_bytes());
    body.extend_from_slice(&hello.latency_budget_ms.to_le_bytes());
    body
}

/// Decodes a `Hello` frame body.
///
/// # Errors
///
/// Returns [`ServeError::Truncated`] on any length mismatch and
/// [`ServeError::Malformed`] if the device class is not UTF-8.
pub fn decode_hello(body: &[u8]) -> Result<HelloRequest> {
    let mut cursor = Cursor { body, offset: 0 };
    let device_class = cursor.string("device class")?;
    let latency_budget_ms = cursor.f64()?;
    cursor.finish()?;
    Ok(HelloRequest {
        device_class,
        latency_budget_ms,
    })
}

/// Encodes a [`SplitAssignment`] as a `HelloAck` frame body: the stage byte
/// followed by a length-prefixed label.
pub fn encode_split_assignment(assignment: &SplitAssignment) -> Vec<u8> {
    debug_assert!(
        assignment.label.len() <= u8::MAX as usize,
        "stage label must fit in one length byte"
    );
    let mut body = Vec::with_capacity(2 + assignment.label.len());
    body.push(assignment.stage);
    body.push(assignment.label.len() as u8);
    body.extend_from_slice(assignment.label.as_bytes());
    body
}

/// Decodes a `HelloAck` frame body.
///
/// # Errors
///
/// Returns [`ServeError::Truncated`] on any length mismatch and
/// [`ServeError::Malformed`] if the label is not UTF-8.
pub fn decode_split_assignment(body: &[u8]) -> Result<SplitAssignment> {
    let mut cursor = Cursor { body, offset: 0 };
    let stage = cursor.u8()?;
    let label = cursor.string("stage label")?;
    cursor.finish()?;
    Ok(SplitAssignment { stage, label })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlsplit_split::{Precision, TensorCodec};
    use mtlsplit_tensor::{StdRng, Tensor};

    #[test]
    fn response_round_trip() {
        let mut rng = StdRng::seed_from(1);
        let codec = TensorCodec::new(Precision::Float32);
        let outputs: Vec<WirePayload> = (0..3)
            .map(|i| codec.encode(&Tensor::randn(&[2, 3 + i], 0.0, 1.0, &mut rng)))
            .collect();
        let body = encode_response(&outputs);
        assert_eq!(decode_response(&body).unwrap(), outputs);
    }

    #[test]
    fn empty_response_round_trip() {
        let body = encode_response(&[]);
        assert!(decode_response(&body).unwrap().is_empty());
    }

    #[test]
    fn metrics_round_trip_preserves_every_field() {
        let metrics = ServeMetrics {
            workers: 3,
            requests: 101,
            errors: 2,
            evictions: 1,
            shed: 11,
            batches: 57,
            bytes_in: 123_456,
            bytes_out: 654_321,
            wall_seconds: 9.25,
            requests_per_second: 10.9,
            mean_batch_size: 1.77,
            p50_latency_s: 0.002,
            p95_latency_s: 0.004,
            p99_latency_s: 0.008,
            queue_wait: PhaseStats {
                count: 101,
                mean_s: 1e-4,
                p50_s: 9e-5,
                p95_s: 3e-4,
                p99_s: 5e-4,
            },
            decode: PhaseStats {
                count: 57,
                mean_s: 2e-5,
                p50_s: 2e-5,
                p95_s: 4e-5,
                p99_s: 6e-5,
            },
            forward: PhaseStats {
                count: 57,
                mean_s: 1e-3,
                p50_s: 9e-4,
                p95_s: 2e-3,
                p99_s: 3e-3,
            },
            encode: PhaseStats {
                count: 57,
                mean_s: 3e-5,
                p50_s: 3e-5,
                p95_s: 5e-5,
                p99_s: 8e-5,
            },
            per_split: vec![
                SplitRequests {
                    stage: 4,
                    label: "gap".to_string(),
                    requests: 80,
                },
                SplitRequests {
                    stage: 1,
                    label: "sep1".to_string(),
                    requests: 21,
                },
            ],
            resilience: ResilienceCounters {
                retries: 5,
                reconnects: 3,
                fallbacks: 2,
                deadlines_exhausted: 1,
                breaker_trips: 4,
                faults_injected: 99,
            },
        };
        let body = encode_metrics(&metrics);
        let decoded = decode_metrics(&body).unwrap();
        assert_eq!(decoded, metrics);
        // A snapshot without splits round-trips too (empty tail).
        let plain = ServeMetrics::default();
        assert_eq!(decode_metrics(&encode_metrics(&plain)).unwrap(), plain);
    }

    #[test]
    fn v3_metrics_bodies_are_rejected_as_an_unsupported_version() {
        let metrics = ServeMetrics {
            workers: 2,
            requests: 40,
            shed: 7,
            resilience: ResilienceCounters {
                retries: 9,
                ..ResilienceCounters::default()
            },
            ..ServeMetrics::default()
        };
        // A v3 body is the v4 body minus the 56-byte tail, stamped v3.
        let mut body = encode_metrics(&metrics);
        body.truncate(body.len() - 7 * 8);
        body[0] = 3;
        assert!(matches!(
            decode_metrics(&body),
            Err(ServeError::UnsupportedVersion { found: 3 })
        ));
        // A truncated tail on a v4 body is still a typed error.
        let mut short = encode_metrics(&metrics);
        short.truncate(short.len() - 1);
        assert!(matches!(
            decode_metrics(&short),
            Err(ServeError::Truncated { .. })
        ));
    }

    #[test]
    fn hello_and_assignment_bodies_round_trip() {
        let hello = HelloRequest {
            device_class: "weak-edge".to_string(),
            latency_budget_ms: 12.5,
        };
        assert_eq!(decode_hello(&encode_hello(&hello)).unwrap(), hello);
        let assignment = SplitAssignment {
            stage: 2,
            label: "sep2".to_string(),
        };
        assert_eq!(
            decode_split_assignment(&encode_split_assignment(&assignment)).unwrap(),
            assignment
        );
        // Truncations and bad UTF-8 are typed errors, not panics.
        let body = encode_hello(&hello);
        assert!(matches!(
            decode_hello(&body[..3]),
            Err(ServeError::Truncated { .. })
        ));
        let mut bad_utf8 = body;
        bad_utf8[1] = 0xFF;
        assert!(matches!(
            decode_hello(&bad_utf8),
            Err(ServeError::Malformed { .. })
        ));
        assert!(matches!(
            decode_split_assignment(&[]),
            Err(ServeError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_metrics_bodies_are_rejected_with_typed_errors() {
        let body = encode_metrics(&ServeMetrics::default());
        assert!(matches!(
            decode_metrics(&body[..body.len() - 1]),
            Err(ServeError::Truncated { .. })
        ));
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(matches!(
            decode_metrics(&trailing),
            Err(ServeError::Truncated { .. })
        ));
        let mut wrong_version = body;
        wrong_version[0] = 9;
        assert!(matches!(
            decode_metrics(&wrong_version),
            Err(ServeError::UnsupportedVersion { found: 9 })
        ));
    }

    #[test]
    fn corrupt_bodies_are_rejected_with_typed_errors() {
        let codec = TensorCodec::new(Precision::Quant8);
        let body = encode_response(&[codec.encode(&Tensor::ones(&[2, 2]))]);
        assert!(matches!(
            decode_response(&[]),
            Err(ServeError::Truncated { .. })
        ));
        assert!(matches!(
            decode_response(&body[..body.len() - 1]),
            Err(ServeError::Truncated { .. })
        ));
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(matches!(
            decode_response(&trailing),
            Err(ServeError::Truncated { .. })
        ));
        let mut corrupt = body;
        corrupt[5] = 99; // precision tag of the embedded payload
        assert!(matches!(
            decode_response(&corrupt),
            Err(ServeError::Split(_))
        ));
    }
}
