//! Pooling layers wrapping the tensor-level pooling kernels.

use mtlsplit_tensor::{
    avg_pool2d_backward_into, avg_pool2d_into, global_avg_pool2d_into, max_pool2d_backward_into,
    max_pool2d_infer_into, max_pool2d_train_into, pooled_dims, Shape, Tensor, TensorArena,
    TensorError,
};

use crate::error::{NnError, Result};
use crate::param::Parameter;
use crate::{Layer, RunMode};

/// Max pooling with a square window.
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    // The argmax-index buffer is reused across training steps (the planned
    // forward refills it in place); the shape is stored inline.
    cache: Option<(Vec<usize>, Shape)>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with the given window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        Self {
            window,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        if !mode.is_train() {
            return self.infer_into(input, ctx);
        }
        let dims = pooled_dims(input, self.window, self.stride, "max_pool2d")?;
        let mut out = ctx.take(dims.iter().product());
        // Reuse the previous step's index buffer: `max_pool2d_train_into`
        // clears and refills it within its existing capacity.
        let mut indices = match self.cache.take() {
            Some((indices, _)) => indices,
            None => Vec::new(),
        };
        max_pool2d_train_into(input, self.window, self.stride, &mut out, &mut indices)?;
        self.cache = Some((indices, input.shape().clone()));
        Ok(Tensor::from_vec(out, &dims)?)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let dims = pooled_dims(input, self.window, self.stride, "max_pool2d")?;
        let mut out = ctx.take(dims.iter().product());
        max_pool2d_infer_into(input, self.window, self.stride, &mut out)?;
        Ok(Tensor::from_vec(out, &dims)?)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let (indices, dims) = self
            .cache
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "MaxPool2d" })?;
        let mut grad_input = ctx.take(dims.len());
        max_pool2d_backward_into(grad_output, indices, &mut grad_input)?;
        Ok(Tensor::from_vec(grad_input, dims.dims())?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Average pooling with a square window.
#[derive(Debug)]
pub struct AvgPool2d {
    window: usize,
    stride: usize,
    cached_dims: Option<Shape>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer with the given window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        Self {
            window,
            stride,
            cached_dims: None,
        }
    }
}

impl Layer for AvgPool2d {
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
        let dims = pooled_dims(input, self.window, self.stride, "avg_pool2d")?;
        let mut out = ctx.take(dims.iter().product());
        avg_pool2d_into(input, self.window, self.stride, &mut out)?;
        Ok(Tensor::from_vec(out, &dims)?)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "AvgPool2d" })?;
        let mut grad_input = ctx.take(dims.len());
        avg_pool2d_backward_into(
            grad_output,
            dims.dims(),
            self.window,
            self.stride,
            &mut grad_input,
        )?;
        Ok(Tensor::from_vec(grad_input, dims.dims())?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }
}

/// Global average pooling: `[batch, channels, h, w] → [batch, channels]`.
///
/// Used as the final spatial reduction of the MobileNet- and
/// EfficientNet-style backbones, and it is also what keeps the transmitted
/// representation `Z_b` small in the split-computing deployment.
#[derive(Debug, Default)]
pub struct GlobalAvgPool2d {
    cached_dims: Option<Shape>,
}

impl GlobalAvgPool2d {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self { cached_dims: None }
    }

    /// The shared backward kernel: spreads each pooled gradient uniformly
    /// over its plane, fully overwriting `gi` (a recycled arena buffer is
    /// safe).
    fn write_backward(&self, grad_output: &Tensor, dims: &[usize], gi: &mut [f32]) -> Result<()> {
        let (batch, channels, height, width) = (dims[0], dims[1], dims[2], dims[3]);
        if grad_output.dims() != [batch, channels] {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "GlobalAvgPool2d backward received {:?}, expected [{batch}, {channels}]",
                    grad_output.dims()
                ),
            });
        }
        let norm = 1.0 / (height * width).max(1) as f32;
        let go = grad_output.as_slice();
        for b in 0..batch {
            for c in 0..channels {
                let g = go[b * channels + c] * norm;
                let base = (b * channels + c) * height * width;
                for v in &mut gi[base..base + height * width] {
                    *v = g;
                }
            }
        }
        Ok(())
    }
}

impl Layer for GlobalAvgPool2d {
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
        if input.rank() != 4 {
            // The pooling kernel's canonical rank error.
            return Err(TensorError::RankMismatch {
                op: "global_avg_pool2d",
                expected: 4,
                actual: input.rank(),
            }
            .into());
        }
        let mut out = ctx.take(input.dims()[0] * input.dims()[1]);
        let dims = global_avg_pool2d_into(input, &mut out)?;
        Ok(Tensor::from_vec(out, &dims)?)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or(NnError::MissingForwardCache {
                layer: "GlobalAvgPool2d",
            })?
            .clone();
        let mut grad_input = ctx.take(dims.len());
        self.write_backward(grad_output, dims.dims(), &mut grad_input)?;
        Ok(Tensor::from_vec(grad_input, dims.dims())?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlsplit_tensor::StdRng;

    #[test]
    fn max_pool_layer_round_trip() {
        let mut rng = StdRng::seed_from(10);
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = pool
            .forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        // The &self path produces the same pooled values.
        assert_eq!(pool.infer(&x).unwrap(), y);
        let grad = pool
            .backward_into(&Tensor::ones(y.dims()), &mut TensorArena::new())
            .unwrap();
        assert_eq!(grad.dims(), x.dims());
        assert_eq!(grad.sum(), 4.0);
    }

    #[test]
    fn avg_pool_layer_gradient_is_uniform() {
        let mut rng = StdRng::seed_from(11);
        let mut pool = AvgPool2d::new(2, 2);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        pool.forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        let grad = pool
            .backward_into(&Tensor::ones(&[1, 1, 2, 2]), &mut TensorArena::new())
            .unwrap();
        assert!(grad.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn global_avg_pool_reduces_and_restores_shape() {
        let mut rng = StdRng::seed_from(1);
        let mut pool = GlobalAvgPool2d::new();
        let x = Tensor::randn(&[2, 3, 4, 4], 0.0, 1.0, &mut rng);
        let y = pool
            .forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        let grad = pool
            .backward_into(&Tensor::ones(&[2, 3]), &mut TensorArena::new())
            .unwrap();
        assert_eq!(grad.dims(), &[2, 3, 4, 4]);
        // Gradient of the mean spreads 1/16 to each spatial location.
        assert!((grad.at(&[0, 0, 0, 0]).unwrap() - 1.0 / 16.0).abs() < 1e-6);
    }

    #[test]
    fn global_avg_pool_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from(2);
        let mut pool = GlobalAvgPool2d::new();
        let x = Tensor::randn(&[1, 2, 3, 3], 0.0, 1.0, &mut rng);
        let probe = Tensor::randn(&[1, 2], 0.0, 1.0, &mut rng);
        pool.forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        let grad = pool.backward_into(&probe, &mut TensorArena::new()).unwrap();
        let eps = 1e-2;
        for idx in [0usize, 9, 17] {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let up = pool.infer(&plus).unwrap().mul(&probe).unwrap().sum();
            let down = pool.infer(&minus).unwrap().mul(&probe).unwrap().sum();
            let num = (up - down) / (2.0 * eps);
            assert!((num - grad.as_slice()[idx]).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_requires_forward() {
        assert!(MaxPool2d::new(2, 2)
            .backward_into(&Tensor::zeros(&[1, 1, 2, 2]), &mut TensorArena::new())
            .is_err());
        assert!(AvgPool2d::new(2, 2)
            .backward_into(&Tensor::zeros(&[1, 1, 2, 2]), &mut TensorArena::new())
            .is_err());
        assert!(GlobalAvgPool2d::new()
            .backward_into(&Tensor::zeros(&[1, 2]), &mut TensorArena::new())
            .is_err());
    }

    #[test]
    fn pooling_layers_have_no_parameters() {
        assert_eq!(MaxPool2d::new(2, 2).parameter_count(), 0);
        assert_eq!(AvgPool2d::new(2, 2).parameter_count(), 0);
        assert_eq!(GlobalAvgPool2d::new().parameter_count(), 0);
    }
}
