//! Batch normalisation over NCHW feature maps.

use mtlsplit_tensor::{ChannelNorm, Shape, Tensor, TensorArena};

use crate::error::{NnError, Result};
use crate::param::Parameter;
use crate::{Layer, RunMode};

/// Per-channel batch normalisation for `[batch, channels, h, w]` tensors.
///
/// During training the layer normalises with the batch statistics and keeps
/// exponential running averages; during inference it uses the running
/// averages, so a trained backbone behaves deterministically on the edge
/// device regardless of batch size.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use mtlsplit_nn::{BatchNorm2d, Layer, RunMode, TensorArena};
/// use mtlsplit_tensor::{StdRng, Tensor};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut rng = StdRng::seed_from(0);
/// let mut bn = BatchNorm2d::new(4);
/// let x = Tensor::randn(&[8, 4, 3, 3], 5.0, 2.0, &mut rng);
/// let mut arena = TensorArena::new();
/// let y = bn.forward_into(&x, RunMode::train(&mut rng), &mut arena)?;
/// // The normalised output is centred near zero.
/// assert!(y.mean().abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    epsilon: f32,
    channels: usize,
    cache: Option<NormCache>,
}

#[derive(Debug)]
struct NormCache {
    normalized: Tensor,
    std_inv: Vec<f32>,
    // Stored as an inline `Shape` so caching it never heap-allocates.
    input_dims: Shape,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels with unit scale
    /// and zero shift.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Parameter::new(Tensor::ones(&[channels])),
            beta: Parameter::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            epsilon: 1e-5,
            channels,
            cache: None,
        }
    }

    /// Running per-channel means (used at inference time).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running per-channel variances (used at inference time).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// The inference-mode normalisation loop, writing into `out` (fully
    /// overwritten, so a recycled arena buffer is safe).
    ///
    /// Evaluates through the same [`ChannelNorm`] the fused convolution
    /// epilogue uses, so the standalone and fused batch-norm passes share
    /// one scalar expression — their bit-identity is structural.
    fn write_infer(&self, src: &[f32], out: &mut [f32], batch: usize, plane: usize) {
        let norm = self.channel_norm();
        for c in 0..self.channels {
            let params = norm.params(c);
            for b in 0..batch {
                let base = (b * self.channels + c) * plane;
                for i in 0..plane {
                    out[base + i] = params.transform(src[base + i]);
                }
            }
        }
    }

    /// This layer's statistics in the form the fused epilogue consumes.
    fn channel_norm(&self) -> ChannelNorm<'_> {
        ChannelNorm {
            gamma: self.gamma.value().as_slice(),
            beta: self.beta.value().as_slice(),
            mean: &self.running_mean,
            var: &self.running_var,
            epsilon: self.epsilon,
        }
    }

    /// The training-mode normalisation: batch statistics per channel,
    /// running-average updates, outputs and the backward cache written into
    /// caller buffers (fully overwritten, so recycled arena buffers are
    /// safe).
    fn write_train(
        &mut self,
        src: &[f32],
        out: &mut [f32],
        normalized: &mut [f32],
        std_inv: &mut [f32],
        batch: usize,
        plane: usize,
    ) {
        let count = (batch * plane).max(1) as f32;
        for (c, std_inv_slot) in std_inv.iter_mut().enumerate() {
            let mut mean = 0.0f32;
            for b in 0..batch {
                let base = (b * self.channels + c) * plane;
                mean += src[base..base + plane].iter().sum::<f32>();
            }
            mean /= count;
            let mut var = 0.0f32;
            for b in 0..batch {
                let base = (b * self.channels + c) * plane;
                var += src[base..base + plane]
                    .iter()
                    .map(|&x| (x - mean).powi(2))
                    .sum::<f32>();
            }
            var /= count;
            self.running_mean[c] =
                (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean;
            self.running_var[c] = (1.0 - self.momentum) * self.running_var[c] + self.momentum * var;
            let inv = 1.0 / (var + self.epsilon).sqrt();
            *std_inv_slot = inv;
            let g = self.gamma.value().as_slice()[c];
            let b_shift = self.beta.value().as_slice()[c];
            for b in 0..batch {
                let base = (b * self.channels + c) * plane;
                for i in 0..plane {
                    let n = (src[base + i] - mean) * inv;
                    normalized[base + i] = n;
                    out[base + i] = g * n + b_shift;
                }
            }
        }
    }

    /// The backward gradients written into caller buffers (fully
    /// overwritten).
    #[allow(clippy::too_many_arguments)]
    fn write_backward(
        &self,
        go: &[f32],
        norm: &[f32],
        std_inv: &[f32],
        grad_input: &mut [f32],
        grad_gamma: &mut [f32],
        grad_beta: &mut [f32],
        batch: usize,
        plane: usize,
    ) {
        let count = (batch * plane).max(1) as f32;
        for c in 0..self.channels {
            let g = self.gamma.value().as_slice()[c];
            let inv = std_inv[c];
            // Channel-level sums needed by the batch-norm gradient formula.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_x = 0.0f32;
            for b in 0..batch {
                let base = (b * self.channels + c) * plane;
                for i in 0..plane {
                    let dy = go[base + i];
                    sum_dy += dy;
                    sum_dy_x += dy * norm[base + i];
                }
            }
            grad_gamma[c] = sum_dy_x;
            grad_beta[c] = sum_dy;
            for b in 0..batch {
                let base = (b * self.channels + c) * plane;
                for i in 0..plane {
                    let dy = go[base + i];
                    // dL/dx = gamma * inv / N * (N*dy - sum(dy) - x_hat * sum(dy*x_hat))
                    grad_input[base + i] =
                        g * inv / count * (count * dy - sum_dy - norm[base + i] * sum_dy_x);
                }
            }
        }
    }

    fn check_grad_output(&self, grad_output: &Tensor, cache: &NormCache) -> Result<()> {
        if grad_output.dims() != cache.input_dims.dims() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "BatchNorm2d backward received {:?}, expected {:?}",
                    grad_output.dims(),
                    cache.input_dims.dims()
                ),
            });
        }
        Ok(())
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        if input.rank() != 4 {
            return Err(NnError::InvalidConfig {
                reason: format!("BatchNorm2d expects rank-4 input, got {:?}", input.dims()),
            });
        }
        if input.dims()[1] != self.channels {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "BatchNorm2d({}) received {} channels",
                    self.channels,
                    input.dims()[1]
                ),
            });
        }
        Ok((input.dims()[0], input.dims()[2], input.dims()[3]))
    }
}

impl Layer for BatchNorm2d {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        if !mode.is_train() {
            return self.infer_into(input, ctx);
        }
        let (batch, height, width) = self.check_input(input)?;
        let plane = height * width;
        // The replaced cache buffers go back to the arena before the new
        // ones are taken — cross-step reuse of the very same memory.
        if let Some(old) = self.cache.take() {
            ctx.recycle(old.normalized);
            ctx.give(old.std_inv);
        }
        let mut out = ctx.take(input.len());
        let mut normalized = ctx.take(input.len());
        let mut std_inv = ctx.take(self.channels);
        self.write_train(
            input.as_slice(),
            &mut out,
            &mut normalized,
            &mut std_inv,
            batch,
            plane,
        );
        self.cache = Some(NormCache {
            normalized: Tensor::from_vec(normalized, input.dims())?,
            std_inv,
            input_dims: input.shape().clone(),
        });
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let (batch, height, width) = self.check_input(input)?;
        let mut out = ctx.take(input.len());
        self.write_infer(input.as_slice(), &mut out, batch, height * width);
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn fused_channel_norm(&self) -> Option<ChannelNorm<'_>> {
        // `write_infer` evaluates through this very structure, so a
        // convolution absorbing this layer changes no bits — it only skips
        // the separate feature-map pass.
        Some(self.channel_norm())
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let cache = self.cache.as_ref().ok_or(NnError::MissingForwardCache {
            layer: "BatchNorm2d",
        })?;
        self.check_grad_output(grad_output, cache)?;
        let input_shape = cache.input_dims.clone();
        let dims = input_shape.dims();
        let (batch, height, width) = (dims[0], dims[2], dims[3]);
        let plane = height * width;
        let mut grad_input = ctx.take(grad_output.len());
        let mut grad_gamma = ctx.take(self.channels);
        let mut grad_beta = ctx.take(self.channels);
        self.write_backward(
            grad_output.as_slice(),
            cache.normalized.as_slice(),
            &cache.std_inv,
            &mut grad_input,
            &mut grad_gamma,
            &mut grad_beta,
            batch,
            plane,
        );
        let grad_gamma = Tensor::from_vec(grad_gamma, &[self.channels])?;
        self.gamma.accumulate_grad(&grad_gamma)?;
        ctx.recycle(grad_gamma);
        let grad_beta = Tensor::from_vec(grad_beta, &[self.channels])?;
        self.beta.accumulate_grad(&grad_beta)?;
        ctx.recycle(grad_beta);
        Ok(Tensor::from_vec(grad_input, dims)?)
    }

    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn parameters(&self) -> Vec<&Parameter> {
        vec![&self.gamma, &self.beta]
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlsplit_tensor::StdRng;

    #[test]
    fn training_forward_normalises_each_channel() {
        let mut rng = StdRng::seed_from(1);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[16, 3, 4, 4], 10.0, 3.0, &mut rng);
        let y = bn
            .forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        // Per-channel mean ~0 and variance ~1 after normalisation.
        let plane = 16 * 16;
        for c in 0..3 {
            let mut values = Vec::with_capacity(plane);
            for b in 0..16 {
                for i in 0..16 {
                    values.push(y.as_slice()[(b * 3 + c) * 16 + i]);
                }
            }
            let mean: f32 = values.iter().sum::<f32>() / values.len() as f32;
            let var: f32 =
                values.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / values.len() as f32;
            assert!(mean.abs() < 1e-3);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn inference_uses_running_statistics() {
        let mut rng = StdRng::seed_from(2);
        let mut bn = BatchNorm2d::new(2);
        // Train on data with mean 4 so the running mean moves towards 4.
        for _ in 0..200 {
            let x = Tensor::randn(&[8, 2, 2, 2], 4.0, 1.0, &mut rng);
            bn.forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
                .unwrap();
        }
        assert!((bn.running_mean()[0] - 4.0).abs() < 0.5);
        // At inference, a constant input equal to the running mean maps near beta (0).
        let x = Tensor::full(&[1, 2, 2, 2], 4.0);
        let y = bn.infer(&x).unwrap();
        assert!(y.as_slice().iter().all(|v| v.abs() < 0.7));
    }

    #[test]
    fn infer_leaves_running_statistics_untouched() {
        let mut rng = StdRng::seed_from(7);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], 2.0, 1.0, &mut rng);
        bn.forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        let mean_before = bn.running_mean().to_vec();
        let var_before = bn.running_var().to_vec();
        // Inference through &self cannot mutate, and an infer-mode forward
        // through &mut self must not either.
        bn.infer(&x).unwrap();
        bn.forward_into(&x, RunMode::Infer, &mut TensorArena::new())
            .unwrap();
        assert_eq!(bn.running_mean(), mean_before.as_slice());
        assert_eq!(bn.running_var(), var_before.as_slice());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from(3);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], 1.0, 2.0, &mut rng);
        let probe = Tensor::randn(x.dims(), 0.0, 1.0, &mut rng);
        bn.forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        let grad = bn.backward_into(&probe, &mut TensorArena::new()).unwrap();
        let eps = 1e-2;
        let mut loss_rng = StdRng::seed_from(30);
        let mut loss = |bn: &mut BatchNorm2d, x: &Tensor| {
            bn.forward_into(x, RunMode::train(&mut loss_rng), &mut TensorArena::new())
                .unwrap()
                .mul(&probe)
                .unwrap()
                .sum()
        };
        for idx in [0usize, 17, 71] {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let num = (loss(&mut bn, &plus) - loss(&mut bn, &minus)) / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[idx]).abs() < 0.05 * (1.0 + num.abs()),
                "numerical {num} vs analytical {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn gamma_beta_gradients_accumulate() {
        let mut rng = StdRng::seed_from(4);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[2, 2, 2, 2], 0.0, 1.0, &mut rng);
        bn.forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        bn.backward_into(&Tensor::ones(x.dims()), &mut TensorArena::new())
            .unwrap();
        // Beta gradient is the sum of the output gradient per channel.
        assert_eq!(bn.parameters()[1].grad().as_slice(), &[8.0, 8.0]);
    }

    #[test]
    fn rejects_wrong_channel_count_and_rank() {
        let bn = BatchNorm2d::new(3);
        assert!(bn.infer(&Tensor::zeros(&[1, 2, 4, 4])).is_err());
        assert!(bn.infer(&Tensor::zeros(&[1, 3, 4])).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut bn = BatchNorm2d::new(1);
        assert!(bn
            .backward_into(&Tensor::zeros(&[1, 1, 2, 2]), &mut TensorArena::new())
            .is_err());
    }
}
