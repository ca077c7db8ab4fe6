//! Point-wise activation layers: ReLU, sigmoid, and the hard variants used by
//! MobileNetV3-style networks.

use mtlsplit_tensor::{
    ActivationGrad, EpilogueActivation, GradMask, Tensor, TensorArena, TensorError,
};

use crate::error::{NnError, Result};
use crate::param::Parameter;
use crate::{Layer, RunMode};

macro_rules! pointwise_activation {
    (
        $(#[$doc:meta])*
        $name:ident, $label:literal, $fused:expr, $forward:expr, $derivative:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            cached_input: Option<Tensor>,
        }

        impl $name {
            /// Creates the activation layer.
            pub fn new() -> Self {
                Self { cached_input: None }
            }
        }

        impl Layer for $name {
            fn forward_into(
                &mut self,
                input: &Tensor,
                mode: RunMode<'_>,
                ctx: &mut TensorArena,
            ) -> Result<Tensor> {
                if mode.is_train() {
                    crate::cache_from_arena(&mut self.cached_input, input, ctx)?;
                }
                self.infer_into(input, ctx)
            }

            fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
                let f: fn(f32) -> f32 = $forward;
                let mut out = ctx.take(input.len());
                for (slot, &x) in out.iter_mut().zip(input.as_slice()) {
                    *slot = f(x);
                }
                Ok(Tensor::from_vec(out, input.dims())?)
            }

            fn fused_activation(&self) -> Option<EpilogueActivation> {
                $fused
            }

            fn fused_grad_mask(&self) -> Option<GradMask<'_>> {
                let fused: Option<EpilogueActivation> = $fused;
                match (&self.cached_input, fused) {
                    (Some(input), Some(activation)) => Some(GradMask {
                        input: input.as_slice(),
                        grad: activation.grad(),
                    }),
                    _ => None,
                }
            }

            fn backward_into(
                &mut self,
                grad_output: &Tensor,
                ctx: &mut TensorArena,
            ) -> Result<Tensor> {
                let input = self
                    .cached_input
                    .as_ref()
                    .ok_or(NnError::MissingForwardCache { layer: $label })?;
                if input.dims() != grad_output.dims() {
                    // The element-wise product's canonical shape error.
                    return Err(TensorError::ShapeMismatch {
                        op: "zip",
                        lhs: grad_output.dims().to_vec(),
                        rhs: input.dims().to_vec(),
                    }
                    .into());
                }
                let d: fn(f32) -> f32 = $derivative;
                // One fused sweep: `g * d(x)` per element.
                let mut out = ctx.take(grad_output.len());
                for ((slot, &g), &x) in out
                    .iter_mut()
                    .zip(grad_output.as_slice())
                    .zip(input.as_slice())
                {
                    *slot = g * d(x);
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
                $label
            }
        }
    };
}

// Every fusable activation's forward delegates to the matching
// `EpilogueActivation::apply`, and every derivative to the matching
// `ActivationGrad::derivative`, so the scalar expressions the standalone
// layers evaluate, the ones the fused GEMM epilogues evaluate (forward
// activation and backward gradient mask alike), are each one definition —
// the bit-identity between the standalone and fused paths is structural,
// not a manually-synced duplicate.

pointwise_activation!(
    /// Rectified linear unit: `max(0, x)`.
    ///
    /// The paper's task-solving heads are "two linear layers activated by the
    /// Rectified Linear Activation Unit". A preceding GEMM layer can absorb
    /// this layer into its fused epilogue (forward), and its gradient mask
    /// into its backward GEMM's write-back.
    Relu,
    "Relu",
    Some(EpilogueActivation::Relu),
    |x| EpilogueActivation::Relu.apply(x),
    |x| ActivationGrad::Relu.derivative(x)
);

pointwise_activation!(
    /// Logistic sigmoid activation. Fusable into a preceding GEMM layer's
    /// epilogue, forward and backward.
    Sigmoid,
    "Sigmoid",
    Some(EpilogueActivation::Sigmoid),
    |x| EpilogueActivation::Sigmoid.apply(x),
    |x| ActivationGrad::Sigmoid.derivative(x)
);

pointwise_activation!(
    /// Hard sigmoid: `clamp((x + 3) / 6, 0, 1)` — the cheap sigmoid
    /// approximation used inside MobileNetV3 squeeze-excite blocks.
    /// Fusable into a preceding GEMM layer's epilogue, forward and backward.
    HardSigmoid,
    "HardSigmoid",
    Some(EpilogueActivation::HardSigmoid),
    |x| EpilogueActivation::HardSigmoid.apply(x),
    |x| ActivationGrad::HardSigmoid.derivative(x)
);

pointwise_activation!(
    /// Hard swish: `x * hard_sigmoid(x)` — MobileNetV3's main activation.
    /// Fusable into a preceding GEMM layer's epilogue, forward and backward.
    HardSwish,
    "HardSwish",
    Some(EpilogueActivation::HardSwish),
    |x| EpilogueActivation::HardSwish.apply(x),
    |x| ActivationGrad::HardSwish.derivative(x)
);

#[cfg(test)]
mod tests {
    use super::*;
    use mtlsplit_tensor::StdRng;

    fn finite_difference<L: Layer>(layer: &mut L, seed: u64) {
        let mut rng = StdRng::seed_from(seed);
        let mut ctx = TensorArena::new();
        let x = Tensor::randn(&[4, 5], 0.0, 1.5, &mut rng);
        let probe = Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng);
        layer
            .forward_into(&x, RunMode::train(&mut rng), &mut ctx)
            .unwrap();
        let grad = layer.backward_into(&probe, &mut ctx).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 7, 19] {
            // Skip points too close to activation kinks where the numerical
            // derivative is ill-defined.
            if matches!(layer.name(), "Relu") && x.as_slice()[idx].abs() < 1e-2 {
                continue;
            }
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let up = layer.infer(&plus).unwrap().mul(&probe).unwrap().sum();
            let down = layer.infer(&minus).unwrap().mul(&probe).unwrap().sum();
            let num = (up - down) / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[idx]).abs() < 1e-2,
                "{}: numerical {num} vs analytical {}",
                layer.name(),
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn relu_clamps_negative_values() {
        let relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]).unwrap();
        let y = relu.infer(&x).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks_negative_inputs() {
        let mut relu = Relu::new();
        let mut rng = StdRng::seed_from(0);
        let mut ctx = TensorArena::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[1, 2]).unwrap();
        relu.forward_into(&x, RunMode::train(&mut rng), &mut ctx)
            .unwrap();
        let grad = relu
            .backward_into(&Tensor::ones(&[1, 2]), &mut ctx)
            .unwrap();
        assert_eq!(grad.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn infer_mode_forward_writes_no_cache() {
        let mut relu = Relu::new();
        let mut ctx = TensorArena::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[1, 2]).unwrap();
        relu.forward_into(&x, RunMode::Infer, &mut ctx).unwrap();
        // No cache was written, so backward still reports the missing pass.
        assert!(relu
            .backward_into(&Tensor::ones(&[1, 2]), &mut ctx)
            .is_err());
    }

    #[test]
    fn sigmoid_is_bounded_and_monotonic() {
        let layer = Sigmoid::new();
        let x = Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[1, 3]).unwrap();
        let y = layer.infer(&x).unwrap();
        assert!(y.as_slice()[0] < 0.01);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 0.99);
    }

    #[test]
    fn hard_swish_matches_definition_at_key_points() {
        let layer = HardSwish::new();
        let x = Tensor::from_vec(vec![-4.0, -3.0, 0.0, 3.0, 4.0], &[1, 5]).unwrap();
        let y = layer.infer(&x).unwrap();
        assert_eq!(y.as_slice()[0], 0.0);
        assert_eq!(y.as_slice()[1], 0.0);
        assert_eq!(y.as_slice()[2], 0.0);
        assert_eq!(y.as_slice()[3], 3.0);
        assert_eq!(y.as_slice()[4], 4.0);
    }

    #[test]
    fn activations_have_no_parameters() {
        assert_eq!(Relu::new().parameter_count(), 0);
        assert_eq!(HardSwish::new().parameter_count(), 0);
    }

    #[test]
    fn backward_requires_forward() {
        let mut layer = HardSigmoid::new();
        assert!(layer
            .backward_into(&Tensor::zeros(&[1, 1]), &mut TensorArena::new())
            .is_err());
    }

    #[test]
    fn relu_gradient_matches_finite_differences() {
        finite_difference(&mut Relu::new(), 31);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_differences() {
        finite_difference(&mut Sigmoid::new(), 32);
    }

    #[test]
    fn hard_swish_gradient_matches_finite_differences() {
        finite_difference(&mut HardSwish::new(), 33);
    }

    #[test]
    fn hard_sigmoid_gradient_matches_finite_differences() {
        finite_difference(&mut HardSigmoid::new(), 34);
    }
}
