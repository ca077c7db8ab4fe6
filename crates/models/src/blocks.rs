//! Composite building blocks: squeeze-and-excitation and inverted residual
//! (MBConv-style) blocks used by the EfficientNet-style backbone.

use mtlsplit_nn::{
    BatchNorm2d, DepthwiseConv2d, HardSigmoid, HardSwish, Layer, Linear, NnError, Parameter,
    PointwiseConv2d, Relu, Result, RunMode, Sequential,
};
use mtlsplit_tensor::{global_avg_pool2d_into, StdRng, Tensor, TensorArena};

/// Squeeze-and-excitation: re-weights each channel by a learned gate computed
/// from the globally pooled feature map.
///
/// `y[b, c, :, :] = x[b, c, :, :] * gate(pool(x))[b, c]` where `gate` is a
/// two-layer MLP with a ReLU bottleneck and a hard-sigmoid output.
pub struct SqueezeExcite {
    channels: usize,
    gate: Sequential,
    cache: Option<SeCache>,
}

struct SeCache {
    input: Tensor,
    scale: Tensor,
}

impl SqueezeExcite {
    /// Creates a squeeze-excite block over `channels` channels with the given
    /// reduction ratio (clamped so the bottleneck has at least one unit).
    pub fn new(channels: usize, reduction: usize, rng: &mut StdRng) -> Self {
        let hidden = (channels / reduction.max(1)).max(1);
        let gate = Sequential::new()
            .push(Linear::new(channels, hidden, rng))
            .push(Relu::new())
            .push(Linear::new(hidden, channels, rng))
            .push(HardSigmoid::new());
        Self {
            channels,
            gate,
            cache: None,
        }
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.rank() != 4 || input.dims()[1] != self.channels {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "SqueezeExcite({}) received input {:?}",
                    self.channels,
                    input.dims()
                ),
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for SqueezeExcite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqueezeExcite")
            .field("channels", &self.channels)
            .finish()
    }
}

impl Layer for SqueezeExcite {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        if !mode.is_train() {
            return self.infer_into(input, ctx);
        }
        self.check_input(input)?;
        // Recycle the previous step's cache buffers before taking this
        // step's — the cross-step reuse that keeps the plan allocation-free.
        if let Some(old) = self.cache.take() {
            ctx.recycle(old.input);
            ctx.recycle(old.scale);
        }
        let dims = input.dims();
        let (batch, channels) = (dims[0], dims[1]);
        let mut pooled_buf = ctx.take(batch * channels);
        global_avg_pool2d_into(input, &mut pooled_buf)?;
        let pooled = Tensor::from_vec(pooled_buf, &[batch, channels])?;
        let scale = self.gate.forward_into(&pooled, mode, ctx)?;
        let mut out = ctx.take(input.len());
        write_scaled_channels(input, &scale, &mut out);
        let output = Tensor::from_vec(out, dims)?;
        ctx.recycle(pooled);
        let mut cached_input = ctx.take(input.len());
        cached_input.copy_from_slice(input.as_slice());
        self.cache = Some(SeCache {
            input: Tensor::from_vec(cached_input, dims)?,
            scale,
        });
        Ok(output)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        self.check_input(input)?;
        let dims = input.dims();
        let (batch, channels) = (dims[0], dims[1]);
        // Pool, gate (the Linear→ReLU half fuses) and re-scale, all on
        // arena buffers.
        let mut pooled_buf = ctx.take(batch * channels);
        global_avg_pool2d_into(input, &mut pooled_buf)?;
        let pooled = Tensor::from_vec(pooled_buf, &[batch, channels])?;
        let scale = self.gate.infer_into(&pooled, ctx)?;
        let mut out = ctx.take(input.len());
        write_scaled_channels(input, &scale, &mut out);
        let result = Tensor::from_vec(out, dims)?;
        ctx.recycle(pooled);
        ctx.recycle(scale);
        Ok(result)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let cache = self.cache.as_ref().ok_or(NnError::MissingForwardCache {
            layer: "SqueezeExcite",
        })?;
        let input_shape = cache.input.shape().clone();
        let dims = input_shape.dims();
        let (batch, channels, height, width) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = height * width;
        // Direct path: dL/dx = dL/dy * scale (broadcast over space), into an
        // arena buffer.
        let mut grad_input = ctx.take(grad_output.len());
        write_scaled_channels(grad_output, &cache.scale, &mut grad_input);
        // Gate path: dL/dscale[b, c] = sum_{h,w} dL/dy * x.
        let mut grad_scale = ctx.take(batch * channels);
        let go = grad_output.as_slice();
        let x = cache.input.as_slice();
        for b in 0..batch {
            for c in 0..channels {
                let base = (b * channels + c) * plane;
                grad_scale[b * channels + c] =
                    (0..plane).map(|i| go[base + i] * x[base + i]).sum::<f32>();
            }
        }
        let grad_scale = Tensor::from_vec(grad_scale, &[batch, channels])?;
        let grad_pooled = self.gate.backward_into(&grad_scale, ctx)?;
        ctx.recycle(grad_scale);
        // The pooled value is the spatial mean, so its gradient spreads
        // uniformly over the plane.
        let gp = grad_pooled.as_slice();
        let norm = 1.0 / plane.max(1) as f32;
        for b in 0..batch {
            for c in 0..channels {
                let g = gp[b * channels + c] * norm;
                let base = (b * channels + c) * plane;
                for v in &mut grad_input[base..base + plane] {
                    *v += g;
                }
            }
        }
        ctx.recycle(grad_pooled);
        Ok(Tensor::from_vec(grad_input, dims)?)
    }

    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.gate.for_each_parameter(f);
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.gate.parameters_mut()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.gate.parameters()
    }

    fn name(&self) -> &'static str {
        "SqueezeExcite"
    }
}

/// Writes `input * scale[b, c]` (broadcast over space) into `out` in one
/// pass — fully overwritten, so a recycled arena buffer is safe.
fn write_scaled_channels(input: &Tensor, scale: &Tensor, out: &mut [f32]) {
    let dims = input.dims();
    let (batch, channels) = (dims[0], dims[1]);
    let plane: usize = dims[2..].iter().product();
    let src = input.as_slice();
    let s = scale.as_slice();
    for b in 0..batch {
        for c in 0..channels {
            let factor = s[b * channels + c];
            let base = (b * channels + c) * plane;
            for (slot, &value) in out[base..base + plane]
                .iter_mut()
                .zip(&src[base..base + plane])
            {
                *slot = value * factor;
            }
        }
    }
}

/// An inverted-residual block in the spirit of MobileNetV2/EfficientNet's
/// MBConv: pointwise expansion → depthwise convolution → squeeze-excite →
/// pointwise projection, with a skip connection when the input and output
/// shapes match.
pub struct MbConvBlock {
    body: Sequential,
    use_skip: bool,
    // Presence marks a completed train-mode forward; stored inline so the
    // per-step cache write never heap-allocates.
    cached_input_dims: Option<mtlsplit_tensor::Shape>,
}

impl MbConvBlock {
    /// Creates an MBConv block.
    ///
    /// * `in_channels` / `out_channels` — channel counts before and after.
    /// * `expansion` — width multiplier of the hidden depthwise stage.
    /// * `stride` — spatial stride of the depthwise convolution.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        expansion: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
        let hidden = (in_channels * expansion).max(1);
        let body = Sequential::new()
            .push(PointwiseConv2d::new(in_channels, hidden, rng))
            .push(BatchNorm2d::new(hidden))
            .push(HardSwish::new())
            .push(DepthwiseConv2d::new(hidden, 3, stride, 1, rng))
            .push(BatchNorm2d::new(hidden))
            .push(HardSwish::new())
            .push(SqueezeExcite::new(hidden, 4, rng))
            .push(PointwiseConv2d::new(hidden, out_channels, rng))
            .push(BatchNorm2d::new(out_channels));
        Self {
            body,
            use_skip: stride == 1 && in_channels == out_channels,
            cached_input_dims: None,
        }
    }

    /// Whether the block adds a skip connection around its body.
    pub fn has_skip(&self) -> bool {
        self.use_skip
    }
}

impl std::fmt::Debug for MbConvBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MbConvBlock")
            .field("use_skip", &self.use_skip)
            .field("parameters", &self.parameter_count())
            .finish()
    }
}

impl Layer for MbConvBlock {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        if !mode.is_train() {
            return self.infer_into(input, ctx);
        }
        self.cached_input_dims = Some(input.shape().clone());
        let mut out = self.body.forward_into(input, mode, ctx)?;
        if self.use_skip {
            // In-place skip add, same element chain as `Tensor::add`.
            if out.dims() != input.dims() {
                return Ok(out.add(input)?); // canonical shape error
            }
            for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
                *o += x;
            }
        }
        Ok(out)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let mut out = self.body.infer_into(input, ctx)?;
        if self.use_skip {
            // In-place skip add: `out[i] + input[i]` element-wise, the same
            // chain as `Tensor::add`, without a third buffer.
            if out.dims() != input.dims() {
                return Ok(out.add(input)?); // canonical shape error
            }
            for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
                *o += x;
            }
        }
        Ok(out)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        if self.cached_input_dims.is_none() {
            return Err(NnError::MissingForwardCache {
                layer: "MbConvBlock",
            });
        }
        let mut grad_body = self.body.backward_into(grad_output, ctx)?;
        if self.use_skip {
            // In-place skip add, same element chain as `Tensor::add`.
            if grad_body.dims() != grad_output.dims() {
                return Ok(grad_body.add(grad_output)?); // canonical shape error
            }
            for (g, &go) in grad_body
                .as_mut_slice()
                .iter_mut()
                .zip(grad_output.as_slice())
            {
                *g += go;
            }
        }
        Ok(grad_body)
    }

    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.body.for_each_parameter(f);
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.body.parameters_mut()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.body.parameters()
    }

    fn name(&self) -> &'static str {
        "MbConvBlock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squeeze_excite_preserves_shape_and_bounds_gain() {
        let mut rng = StdRng::seed_from(1);
        let mut se = SqueezeExcite::new(8, 4, &mut rng);
        let x = Tensor::randn(&[2, 8, 5, 5], 0.0, 1.0, &mut rng);
        let y = se
            .forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        // The pure inference path computes the same re-weighting.
        assert_eq!(se.infer(&x).unwrap(), y);
        assert_eq!(y.dims(), x.dims());
        // The gate is a hard sigmoid, so |y| <= |x| element-wise.
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!(b.abs() <= a.abs() + 1e-6);
        }
    }

    #[test]
    fn squeeze_excite_backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from(2);
        let mut se = SqueezeExcite::new(4, 2, &mut rng);
        let x = Tensor::randn(&[1, 4, 4, 4], 0.0, 1.0, &mut rng);
        let probe = Tensor::randn(x.dims(), 0.0, 1.0, &mut rng);
        se.forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        let grad = se.backward_into(&probe, &mut TensorArena::new()).unwrap();
        let eps = 1e-2;
        for idx in [0usize, 21, 63] {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let up = se.infer(&plus).unwrap().mul(&probe).unwrap().sum();
            let down = se.infer(&minus).unwrap().mul(&probe).unwrap().sum();
            let num = (up - down) / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[idx]).abs() < 0.05 * (1.0 + num.abs()),
                "idx {idx}: numerical {num} vs analytical {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn squeeze_excite_rejects_wrong_channel_count() {
        let mut rng = StdRng::seed_from(3);
        let se = SqueezeExcite::new(8, 4, &mut rng);
        assert!(se.infer(&Tensor::zeros(&[1, 4, 3, 3])).is_err());
    }

    #[test]
    fn mbconv_with_matching_shapes_uses_skip() {
        let mut rng = StdRng::seed_from(4);
        let block = MbConvBlock::new(8, 8, 2, 1, &mut rng);
        assert!(block.has_skip());
        let strided = MbConvBlock::new(8, 16, 2, 2, &mut rng);
        assert!(!strided.has_skip());
    }

    #[test]
    fn mbconv_forward_shapes() {
        let mut rng = StdRng::seed_from(5);
        let mut same = MbConvBlock::new(8, 8, 2, 1, &mut rng);
        let y = same
            .forward_into(
                &Tensor::zeros(&[2, 8, 8, 8]),
                RunMode::train(&mut rng),
                &mut TensorArena::new(),
            )
            .unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        let down = MbConvBlock::new(8, 16, 2, 2, &mut rng);
        let y = down.infer(&Tensor::zeros(&[2, 8, 8, 8])).unwrap();
        assert_eq!(y.dims(), &[2, 16, 4, 4]);
    }

    #[test]
    fn mbconv_backward_produces_input_shaped_gradient() {
        let mut rng = StdRng::seed_from(6);
        let mut block = MbConvBlock::new(4, 4, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 4, 6, 6], 0.0, 1.0, &mut rng);
        let y = block
            .forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        let grad = block
            .backward_into(&Tensor::ones(y.dims()), &mut TensorArena::new())
            .unwrap();
        assert_eq!(grad.dims(), x.dims());
        assert!(block
            .parameters()
            .iter()
            .any(|p| p.grad().squared_norm() > 0.0));
    }

    #[test]
    fn mbconv_backward_requires_forward() {
        let mut rng = StdRng::seed_from(7);
        let mut block = MbConvBlock::new(4, 4, 2, 1, &mut rng);
        assert!(block
            .backward_into(&Tensor::zeros(&[1, 4, 6, 6]), &mut TensorArena::new())
            .is_err());
    }
}
