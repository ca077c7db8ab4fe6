//! Output checks. Every served answer is compared bit for bit with the
//! monolithic `MtlSplitModel::infer_forward`, every training loss must be
//! finite, and a shed request counts as a failure that misses the latency
//! limit — never as a success.

use mtlsplit_serve::wire::decode_response;
use mtlsplit_serve::{ErrorCode, Frame, OpCode};
use mtlsplit_split::TensorCodec;
use mtlsplit_tensor::Tensor;

/// Compares served outputs with the reference outputs bit for bit.
///
/// # Errors
///
/// A differing task count, shape or any differing bit.
pub fn check_bitwise(got: &[Tensor], expected: &[Tensor]) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "{} task outputs served, {} expected",
            got.len(),
            expected.len()
        ));
    }
    for (task, (g, e)) in got.iter().zip(expected).enumerate() {
        if g.dims() != e.dims() {
            return Err(format!(
                "task {task}: shape {:?}, expected {:?}",
                g.dims(),
                e.dims()
            ));
        }
        if let Some(at) = g
            .as_slice()
            .iter()
            .zip(e.as_slice())
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(format!(
                "task {task}: element {at} is {:e}, expected {:e}",
                g.as_slice()[at],
                e.as_slice()[at]
            ));
        }
    }
    Ok(())
}

/// Checks that every per-task loss of a training step is finite.
///
/// # Errors
///
/// A NaN or infinite loss.
pub fn check_losses(losses: &[f32]) -> Result<(), String> {
    match losses.iter().position(|l| !l.is_finite()) {
        Some(task) => Err(format!("task {task} loss is {}", losses[task])),
        None if losses.is_empty() => Err("no loss reported".to_string()),
        None => Ok(()),
    }
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer is bit-identical to the reference.
    Ok,
    /// Refused by admission control (`Overloaded`).
    Shed,
    /// Any other error, or a wrong answer.
    Failed(String),
}

/// Classifies one response frame against the reference outputs.
pub fn classify_response(frame: &Frame, codec: TensorCodec, expected: &[Tensor]) -> Outcome {
    match frame.op {
        OpCode::InferResponse => {
            let decoded: Result<Vec<Tensor>, String> = decode_response(&frame.body)
                .map_err(|e| e.to_string())
                .and_then(|payloads| {
                    payloads
                        .iter()
                        .map(|p| codec.decode(p).map_err(|e| e.to_string()))
                        .collect()
                });
            match decoded.and_then(|got| check_bitwise(&got, expected)) {
                Ok(()) => Outcome::Ok,
                Err(reason) => Outcome::Failed(reason),
            }
        }
        OpCode::Error => match frame.error_info() {
            (ErrorCode::Overloaded, _) => Outcome::Shed,
            (code, message) => Outcome::Failed(format!("{code:?}: {message}")),
        },
        other => Outcome::Failed(format!("unexpected {other:?} frame")),
    }
}

/// Counts of request outcomes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Correct answers.
    pub ok: u64,
    /// Admission-control sheds.
    pub shed: u64,
    /// Errors and wrong answers.
    pub failed: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn record(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Failed(_) => self.failed += 1,
        }
    }

    /// Requests that did not end in a correct answer: sheds included.
    pub fn unsuccessful(&self) -> u64 {
        self.shed + self.failed
    }
}

/// The latency a request counts with: its time for a correct answer;
/// infinitely late for a shed or failed one, so it misses any limit.
pub fn counted_latency(outcome: &Outcome, elapsed_ns: f64) -> f64 {
    match outcome {
        Outcome::Ok => elapsed_ns,
        Outcome::Shed | Outcome::Failed(_) => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlsplit_core::MtlSplitModel;
    use mtlsplit_serve::wire::encode_response;
    use mtlsplit_split::Precision;

    fn reference() -> (Tensor, Vec<Tensor>) {
        let model = crate::deploy::build_model(5).expect("model");
        let image = crate::deploy::images(5, 1).expect("images").remove(0);
        let (_, outputs) = MtlSplitModel::infer_forward(&model, &image).expect("forward");
        (image, outputs)
    }

    fn response_frame(outputs: &[Tensor]) -> Frame {
        let codec = TensorCodec::new(Precision::Float32);
        let payloads: Vec<_> = outputs.iter().map(|t| codec.encode(t)).collect();
        Frame::new(OpCode::InferResponse, 1, encode_response(&payloads))
    }

    #[test]
    fn a_served_tensor_with_one_flipped_bit_is_rejected() {
        let (_, expected) = reference();
        let codec = TensorCodec::new(Precision::Float32);
        assert_eq!(
            classify_response(&response_frame(&expected), codec, &expected),
            Outcome::Ok
        );
        for task in 0..expected.len() {
            let mut flipped = expected.clone();
            let mut values = flipped[task].as_slice().to_vec();
            values[0] = f32::from_bits(values[0].to_bits() ^ 1);
            flipped[task] = Tensor::from_vec(values, expected[task].dims()).expect("tensor");
            assert!(check_bitwise(&flipped, &expected).is_err(), "task {task}");
            assert!(matches!(
                classify_response(&response_frame(&flipped), codec, &expected),
                Outcome::Failed(_)
            ));
        }
    }

    #[test]
    fn a_non_finite_training_loss_is_rejected() {
        assert!(check_losses(&[0.7, 1.1]).is_ok());
        assert!(check_losses(&[0.7, f32::NAN]).is_err());
        assert!(check_losses(&[f32::INFINITY, 1.1]).is_err());
        assert!(check_losses(&[]).is_err());
    }

    #[test]
    fn a_shed_counts_as_a_failure_that_misses_the_limit() {
        let (_, expected) = reference();
        let shed = Frame::error_coded(9, ErrorCode::Overloaded, "queue full");
        let outcome = classify_response(&shed, TensorCodec::default(), &expected);
        assert_eq!(outcome, Outcome::Shed);
        let mut tally = Tally::default();
        tally.record(&outcome);
        assert_eq!(tally.ok, 0, "a shed is never a success");
        assert_eq!(tally.unsuccessful(), 1);

        // 989 fast answers plus 11 sheds: more than 1% of the requests
        // missed, so the p99 is over any limit.
        assert!(counted_latency(&outcome, 1e5).is_infinite());
        let mut latencies = vec![counted_latency(&Outcome::Ok, 1e5); 989];
        assert_eq!(crate::stats::windowed_p99(&latencies), 1e5);
        latencies.extend(std::iter::repeat_n(counted_latency(&outcome, 1e5), 11));
        assert!(crate::stats::windowed_p99(&latencies).is_infinite());
    }
}
