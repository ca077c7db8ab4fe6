//! Inverted dropout regularisation.

use mtlsplit_tensor::{Tensor, TensorArena, TensorError};

use crate::error::{NnError, Result};
use crate::param::Parameter;
use crate::{Layer, RunMode};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and the survivors are scaled by `1 / (1 - p)`, so the
/// expected activation is unchanged and inference needs no rescaling.
///
/// The layer holds no RNG of its own: the mask is drawn from the RNG carried
/// by [`RunMode::Train`], so the same training seed reproduces the same
/// masks and a frozen layer has no stochastic state left to mutate —
/// [`Layer::infer_into`] is the identity.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 <= p < 1`.
    pub fn new(p: f32) -> Result<Self> {
        if !(0.0..1.0).contains(&p) {
            return Err(NnError::InvalidHyperParameter {
                name: "dropout probability",
                value: p,
            });
        }
        Ok(Self { p, mask: None })
    }

    /// The configured drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        let RunMode::Train { rng } = mode else {
            return self.infer_into(input, ctx);
        };
        // The replaced mask buffer goes back to the arena — cross-step
        // reuse, exactly like the activation caches.
        if let Some(old) = self.mask.take() {
            ctx.recycle(old);
        }
        let mut mask = ctx.take(input.len());
        if self.p == 0.0 {
            mask.fill(1.0);
        } else {
            let keep = 1.0 - self.p;
            let scale = 1.0 / keep;
            // One `chance` call per element, in order: the RNG draw order
            // every training run with this seed reproduces.
            for value in mask.iter_mut() {
                *value = if rng.chance(keep) { scale } else { 0.0 };
            }
        }
        let mut out = ctx.take(input.len());
        for ((slot, &x), &m) in out.iter_mut().zip(input.as_slice()).zip(&mask) {
            *slot = x * m;
        }
        self.mask = Some(Tensor::from_vec(mask, input.dims())?);
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        // Inference dropout is the identity; the copy lands in a recycled
        // arena buffer instead of a fresh clone.
        let mut out = ctx.take(input.len());
        out.copy_from_slice(input.as_slice());
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Dropout" })?;
        if mask.dims() != grad_output.dims() {
            // The element-wise product's canonical shape error.
            return Err(TensorError::ShapeMismatch {
                op: "zip",
                lhs: grad_output.dims().to_vec(),
                rhs: mask.dims().to_vec(),
            }
            .into());
        }
        let mut out = ctx.take(grad_output.len());
        for ((slot, &g), &m) in out
            .iter_mut()
            .zip(grad_output.as_slice())
            .zip(mask.as_slice())
        {
            *slot = g * m;
        }
        Ok(Tensor::from_vec(out, grad_output.dims())?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlsplit_tensor::StdRng;

    #[test]
    fn rejects_invalid_probability() {
        assert!(Dropout::new(1.0).is_err());
        assert!(Dropout::new(-0.1).is_err());
        assert!(Dropout::new(0.5).is_ok());
    }

    #[test]
    fn inference_is_identity() {
        let dropout = Dropout::new(0.8).unwrap();
        let x = Tensor::ones(&[4, 4]);
        let y = dropout.infer(&x).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn training_zeroes_roughly_p_fraction_and_rescales() {
        let mut rng = StdRng::seed_from(2);
        let mut dropout = Dropout::new(0.5).unwrap();
        let x = Tensor::ones(&[100, 100]);
        let y = dropout
            .forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let ratio = zeros as f32 / y.len() as f32;
        assert!((ratio - 0.5).abs() < 0.05, "dropped fraction {ratio}");
        // Survivors are scaled so the expectation is preserved.
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn masks_are_reproducible_from_the_run_mode_rng() {
        let x = Tensor::ones(&[16, 16]);
        let draw = || {
            let mut rng = StdRng::seed_from(7);
            let mut dropout = Dropout::new(0.3).unwrap();
            dropout
                .forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
                .unwrap()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn backward_applies_the_same_mask() {
        let mut rng = StdRng::seed_from(3);
        let mut dropout = Dropout::new(0.5).unwrap();
        let x = Tensor::ones(&[10, 10]);
        let mut ctx = TensorArena::new();
        let y = dropout
            .forward_into(&x, RunMode::train(&mut rng), &mut ctx)
            .unwrap();
        let grad = dropout
            .backward_into(&Tensor::ones(&[10, 10]), &mut ctx)
            .unwrap();
        // Exactly the positions that survived forward propagate gradient.
        for (a, b) in y.as_slice().iter().zip(grad.as_slice()) {
            assert_eq!(a == &0.0, b == &0.0);
        }
    }

    #[test]
    fn backward_requires_forward() {
        let mut dropout = Dropout::new(0.3).unwrap();
        let mut ctx = TensorArena::new();
        assert!(dropout
            .backward_into(&Tensor::zeros(&[2, 2]), &mut ctx)
            .is_err());
        // An infer-mode forward must not satisfy the cache requirement either.
        dropout
            .forward_into(&Tensor::zeros(&[2, 2]), RunMode::Infer, &mut ctx)
            .unwrap();
        assert!(dropout
            .backward_into(&Tensor::zeros(&[2, 2]), &mut ctx)
            .is_err());
    }
}
