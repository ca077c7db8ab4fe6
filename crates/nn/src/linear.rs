//! Fully-connected layers and the flattening adapter between convolutional
//! feature maps and dense heads.

use mtlsplit_tensor::{
    sgemm, sgemm_epilogue, Bias, BiasAxis, Epilogue, EpilogueActivation, GradMask, Parallelism,
    Shape, StdRng, Tensor, TensorArena, TensorError,
};

use crate::error::{NnError, Result};
use crate::init::kaiming_normal;
use crate::param::Parameter;
use crate::{Layer, RunMode};

/// A fully-connected (affine) layer: `y = x W^T + b`.
///
/// The weight is stored as `[out_features, in_features]`, matching the usual
/// deep-learning convention; the paper's task-solving heads are two stacked
/// `Linear` layers with a ReLU in between. Forward and backward both run on
/// the blocked [`sgemm`] kernel with transpose flags, so no pass ever
/// materialises a transposed weight or gradient copy.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use mtlsplit_nn::{Layer, Linear};
/// use mtlsplit_tensor::{StdRng, Tensor};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut rng = StdRng::seed_from(0);
/// let layer = Linear::new(8, 4, &mut rng);
/// let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut rng);
/// let y = layer.infer(&x)?;
/// assert_eq!(y.dims(), &[2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-initialised weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let weight = kaiming_normal(&[out_features, in_features], in_features, rng);
        Self {
            weight: Parameter::new(weight),
            bias: Parameter::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    fn check_input(&self, input: &Tensor) -> Result<usize> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "Linear({}, {}) received input of shape {:?}",
                    self.in_features,
                    self.out_features,
                    input.dims()
                ),
            });
        }
        Ok(input.dims()[0])
    }

    /// The shared inference kernel: one GEMM with the bias (and optionally a
    /// fused activation) riding in the epilogue, writing into `out` — which
    /// may be an uninitialised arena buffer, since the epilogue path never
    /// reads prior output contents.
    fn run_infer(
        &self,
        input: &Tensor,
        activation: Option<EpilogueActivation>,
        mut out: Vec<f32>,
    ) -> Result<Tensor> {
        let batch = input.dims()[0];
        sgemm_epilogue(
            false,
            true,
            batch,
            self.out_features,
            self.in_features,
            1.0,
            input.as_slice(),
            self.weight.value().as_slice(),
            0.0,
            &mut out,
            Epilogue::with_activation(
                Bias {
                    values: self.bias.value().as_slice(),
                    axis: BiasAxis::Col,
                },
                activation,
            ),
            Parallelism::current(),
        );
        Ok(Tensor::from_vec(out, &[batch, self.out_features])?)
    }

    /// The backward kernel shared by the unfused and masked entry points:
    /// all three gradients on arena buffers, the bias-gradient reduction riding the GEMM's single-row
    /// GEMV fast path, and — when `mask` is given — a following (in
    /// backward order) activation's gradient mask folded into the
    /// input-gradient GEMM's write-back via [`Epilogue::Mask`].
    fn run_backward(
        &mut self,
        grad_output: &Tensor,
        mask: Option<GradMask<'_>>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Linear" })?;
        if grad_output.rank() != 2 || grad_output.dims() != [input.dims()[0], self.out_features] {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "Linear({}, {}) backward received grad_output of shape {:?} for input {:?}",
                    self.in_features,
                    self.out_features,
                    grad_output.dims(),
                    input.dims()
                ),
            });
        }
        let batch = grad_output.dims()[0];
        let par = Parallelism::current();
        // dL/dW = grad_outputᵀ · input — the transposes are GEMM flags, not
        // copies — with the output landing in a recycled arena buffer.
        let mut grad_weight = ctx.take(self.out_features * self.in_features);
        sgemm(
            true,
            false,
            self.out_features,
            self.in_features,
            batch,
            1.0,
            grad_output.as_slice(),
            input.as_slice(),
            0.0,
            &mut grad_weight,
            par,
        );
        // dL/db = column sums of grad_output, computed as onesᵀ ·
        // grad_output on the GEMM's m == 1 GEMV fast path. The chain per
        // element is the ascending-batch sum with a factor of exactly 1.0,
        // bit-identical to the separate `sum_axis0` pass it replaces
        // (asserted by a unit test below).
        let mut ones = ctx.take(batch);
        ones.fill(1.0);
        let mut grad_bias = ctx.take(self.out_features);
        sgemm(
            false,
            false,
            1,
            self.out_features,
            batch,
            1.0,
            &ones,
            grad_output.as_slice(),
            0.0,
            &mut grad_bias,
            par,
        );
        ctx.give(ones);
        // dL/dx = grad_output · W, with the activation-gradient mask (if
        // fused) applied in the GEMM's write-back instead of a separate
        // full-tensor pass.
        let mut grad_input = ctx.take(batch * self.in_features);
        sgemm_epilogue(
            false,
            false,
            batch,
            self.in_features,
            self.out_features,
            1.0,
            grad_output.as_slice(),
            self.weight.value().as_slice(),
            0.0,
            &mut grad_input,
            mask.map_or(Epilogue::None, Epilogue::Mask),
            par,
        );
        let grad_weight = Tensor::from_vec(grad_weight, &[self.out_features, self.in_features])?;
        self.weight.accumulate_grad(&grad_weight)?;
        ctx.recycle(grad_weight);
        let grad_bias = Tensor::from_vec(grad_bias, &[self.out_features])?;
        self.bias.accumulate_grad(&grad_bias)?;
        ctx.recycle(grad_bias);
        Ok(Tensor::from_vec(grad_input, &[batch, self.in_features])?)
    }
}

impl Layer for Linear {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        let out = self.infer_into(input, ctx)?;
        if mode.is_train() {
            crate::cache_from_arena(&mut self.cached_input, input, ctx)?;
        }
        Ok(out)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let batch = self.check_input(input)?;
        let out = ctx.take(batch * self.out_features);
        self.run_infer(input, None, out)
    }

    fn infer_into_fused(
        &self,
        input: &Tensor,
        activation: EpilogueActivation,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        Some(self.check_input(input).and_then(|batch| {
            let out = ctx.take(batch * self.out_features);
            self.run_infer(input, Some(activation), out)
        }))
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        self.run_backward(grad_output, None, ctx)
    }

    fn backward_into_masked(
        &mut self,
        grad_output: &Tensor,
        mask: GradMask<'_>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        // Only absorb a mask that aligns element-for-element with this
        // layer's input gradient; otherwise the caller runs the unfused
        // path, which surfaces the canonical shape error.
        let batch = grad_output.dims().first().copied().unwrap_or(0);
        if grad_output.rank() != 2 || mask.input.len() != batch * self.in_features {
            return None;
        }
        Some(self.run_backward(grad_output, Some(mask), ctx))
    }

    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn parameters(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

/// Flattens a `[batch, ...]` tensor to `[batch, features]`, remembering the
/// original shape so the gradient can be folded back.
///
/// This is the operation the paper applies to the backbone output `Z_b`
/// before it is transmitted: "the output is typically a tensor, which, in our
/// approach, is flattened before being sent through the network".
#[derive(Debug, Default)]
pub struct Flatten {
    // Stored as an inline `Shape` so caching it never heap-allocates.
    cached_dims: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        if mode.is_train() {
            self.cached_dims = Some(input.shape().clone());
        }
        self.infer_into(input, ctx)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        // Same result as `flatten_batch`, with the data landing in a
        // recycled arena buffer instead of a fresh clone.
        if input.rank() == 0 {
            // `flatten_batch`'s canonical error: a scalar has no batch axis.
            return Err(TensorError::RankMismatch {
                op: "flatten_batch",
                expected: 1,
                actual: 0,
            }
            .into());
        }
        let batch = input.dims()[0];
        let features = input.len().checked_div(batch).unwrap_or(0);
        let mut out = ctx.take(input.len());
        out.copy_from_slice(input.as_slice());
        Ok(Tensor::from_vec(out, &[batch, features])?)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Flatten" })?;
        if dims.len() != grad_output.len() {
            // The canonical reshape error.
            return Ok(grad_output.reshape(dims.dims())?);
        }
        let mut out = ctx.take(grad_output.len());
        out.copy_from_slice(grad_output.as_slice());
        Ok(Tensor::from_vec(out, dims.dims())?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_affine_map() {
        let mut rng = StdRng::seed_from(1);
        let mut layer = Linear::new(2, 2, &mut rng);
        // Overwrite with known weights.
        *layer.weight.value_mut() = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        *layer.bias.value_mut() = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = layer.infer(&x).unwrap();
        // y = [1*1+1*2+0.5, 1*3+1*4-0.5] = [3.5, 6.5]
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn forward_rejects_wrong_feature_count() {
        let mut rng = StdRng::seed_from(2);
        let layer = Linear::new(4, 2, &mut rng);
        assert!(layer.infer(&Tensor::zeros(&[1, 3])).is_err());
        assert!(layer.infer(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn backward_before_forward_is_an_error() {
        let mut rng = StdRng::seed_from(3);
        let mut layer = Linear::new(2, 2, &mut rng);
        assert!(matches!(
            layer.backward_into(&Tensor::zeros(&[1, 2]), &mut TensorArena::new()),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from(4);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], 0.0, 1.0, &mut rng);
        let probe = Tensor::randn(&[4, 2], 0.0, 1.0, &mut rng);

        let mut ctx = TensorArena::new();
        layer
            .forward_into(&x, RunMode::train(&mut rng), &mut ctx)
            .unwrap();
        let grad_input = layer.backward_into(&probe, &mut ctx).unwrap();

        // loss(x, w) = sum(probe * (x W^T + b))
        let eps = 1e-2;
        let loss =
            |layer: &mut Linear, x: &Tensor| layer.infer(x).unwrap().mul(&probe).unwrap().sum();
        // Check input gradient at a few coordinates.
        for idx in [0usize, 5, 11] {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let num = (loss(&mut layer, &plus) - loss(&mut layer, &minus)) / (2.0 * eps);
            assert!((num - grad_input.as_slice()[idx]).abs() < 1e-2);
        }
        // Check weight gradient at a few coordinates.
        let grad_w = layer.weight.grad().clone();
        for idx in [0usize, 3, 5] {
            let original = layer.weight.value().as_slice()[idx];
            layer.weight.value_mut().as_mut_slice()[idx] = original + eps;
            let up = loss(&mut layer, &x);
            layer.weight.value_mut().as_mut_slice()[idx] = original - eps;
            let down = loss(&mut layer, &x);
            layer.weight.value_mut().as_mut_slice()[idx] = original;
            let num = (up - down) / (2.0 * eps);
            assert!((num - grad_w.as_slice()[idx]).abs() < 2e-2);
        }
    }

    #[test]
    fn planned_backward_matches_allocating_backward_bitwise() {
        // The arena backward (recycled buffers, grad-bias on the GEMV fast
        // path) against the allocating formulation written out here: three
        // fresh buffers, `dW = goᵀ·x` and `dx = go·W` as plain GEMMs and
        // `db` as the separate `sum_axis0` pass. Input gradient and
        // parameter gradients must agree to the bit, across batch sizes and
        // one reused arena.
        let mut rng = StdRng::seed_from(21);
        let mut planned = Linear::new(7, 5, &mut rng);
        let mut ctx = TensorArena::new();
        let par = Parallelism::current();
        for batch in [3usize, 1, 6] {
            let x = Tensor::randn(&[batch, 7], 0.0, 1.0, &mut rng);
            let probe = Tensor::randn(&[batch, 5], 0.0, 1.0, &mut rng);
            planned.weight.zero_grad();
            planned.bias.zero_grad();
            planned
                .forward_into(&x, RunMode::train(&mut rng), &mut ctx)
                .unwrap();
            let g = planned.backward_into(&probe, &mut ctx).unwrap();

            let mut grad_weight = vec![0.0f32; 5 * 7];
            sgemm(
                true,
                false,
                5,
                7,
                batch,
                1.0,
                probe.as_slice(),
                x.as_slice(),
                0.0,
                &mut grad_weight,
                par,
            );
            let mut grad_input = vec![0.0f32; batch * 7];
            sgemm(
                false,
                false,
                batch,
                7,
                5,
                1.0,
                probe.as_slice(),
                planned.weight.value().as_slice(),
                0.0,
                &mut grad_input,
                par,
            );
            assert_eq!(
                g.as_slice(),
                grad_input.as_slice(),
                "grad_input diverged at batch {batch}"
            );
            // The gradients were zeroed, so the accumulated value is this
            // step's gradient exactly (0 + g == g).
            assert_eq!(
                planned.weight.grad().as_slice(),
                grad_weight.as_slice(),
                "grad_weight diverged at batch {batch}"
            );
            assert_eq!(
                planned.bias.grad(),
                &probe.sum_axis0().unwrap(),
                "grad_bias (GEMV) diverged from sum_axis0 at batch {batch}"
            );
            ctx.recycle(g);
        }
    }

    #[test]
    fn masked_backward_matches_backward_then_activation_mask() {
        use mtlsplit_tensor::{ActivationGrad, GradMask};
        // Linear backward with a fused ReLU gradient mask == unfused
        // backward followed by the element-wise mask, bitwise.
        let mut rng = StdRng::seed_from(22);
        let mut layer = Linear::new(6, 4, &mut rng);
        let x = Tensor::randn(&[5, 6], 0.0, 1.0, &mut rng);
        let probe = Tensor::randn(&[5, 4], 0.0, 1.0, &mut rng);
        let relu_input = Tensor::randn(&[5, 6], 0.0, 1.0, &mut rng);
        layer.cached_input = Some(x.clone());
        let mut ctx = TensorArena::new();
        let unfused = layer.backward_into(&probe, &mut ctx).unwrap();
        let mut expected = unfused.clone();
        for (slot, &v) in expected
            .as_mut_slice()
            .iter_mut()
            .zip(relu_input.as_slice())
        {
            *slot *= ActivationGrad::Relu.derivative(v);
        }
        layer.weight.zero_grad();
        layer.bias.zero_grad();
        let fused = layer
            .backward_into_masked(
                &probe,
                GradMask {
                    input: relu_input.as_slice(),
                    grad: ActivationGrad::Relu,
                },
                &mut ctx,
            )
            .expect("mask aligns, so the layer must absorb it")
            .unwrap();
        assert_eq!(fused, expected);
        // A misaligned mask is declined, not mis-applied.
        assert!(layer
            .backward_into_masked(
                &probe,
                GradMask {
                    input: &relu_input.as_slice()[..10],
                    grad: ActivationGrad::Relu,
                },
                &mut ctx,
            )
            .is_none());
    }

    #[test]
    fn parameter_count_includes_weight_and_bias() {
        let mut rng = StdRng::seed_from(5);
        let layer = Linear::new(10, 4, &mut rng);
        assert_eq!(layer.parameter_count(), 10 * 4 + 4);
    }

    #[test]
    fn flatten_round_trips_shapes() {
        let mut rng = StdRng::seed_from(9);
        let mut flatten = Flatten::new();
        let mut ctx = TensorArena::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = flatten
            .forward_into(&x, RunMode::train(&mut rng), &mut ctx)
            .unwrap();
        assert_eq!(y.dims(), &[2, 48]);
        let grad = flatten
            .backward_into(&Tensor::ones(&[2, 48]), &mut ctx)
            .unwrap();
        assert_eq!(grad.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn flatten_backward_requires_forward() {
        let mut flatten = Flatten::new();
        assert!(flatten
            .backward_into(&Tensor::zeros(&[1, 4]), &mut TensorArena::new())
            .is_err());
    }
}
