//! Neural-network building blocks for the MTL-Split reproduction.
//!
//! This crate layers a small but complete deep-learning toolkit on top of
//! [`mtlsplit_tensor`]: trainable [`Parameter`]s, a [`Layer`] trait with
//! explicit forward/backward passes, the concrete layers needed by the
//! paper's three backbone families (dense and depthwise convolutions, batch
//! normalisation, ReLU/hard-swish activations, pooling, dropout, linear
//! layers), classification and regression losses, and the SGD and AdamW
//! optimizers used for training and fine-tuning.
//!
//! Differentiation is *layer-wise reverse mode*: each layer caches whatever
//! it needs during [`Layer::forward_into`] and produces the input gradient
//! (plus its own parameter gradients) during [`Layer::backward_into`]. A
//! [`Sequential`] container chains layers; the multi-head topology of
//! MTL-Split is composed in `mtlsplit-core` by fanning one backbone output
//! into several sequential heads and summing the gradients that come back.
//!
//! Forward passes are driven by a typed [`RunMode`] instead of a boolean
//! flag: [`RunMode::Train`] carries the RNG that stochastic layers (dropout)
//! draw from and runs through `&mut self` so layers can cache activations
//! for the backward pass; inference goes through [`Layer::infer_into`],
//! which takes `&self`, never mutates, and therefore lets a frozen model be
//! shared across threads behind an `Arc`.
//!
//! # One implementation per layer, on a recycled-buffer arena
//!
//! Every pass of every layer draws its outputs, caches and gradient
//! temporaries from a [`TensorArena`]; there is no second, allocating
//! implementation to keep in sync. [`Layer::infer`] is only a convenience
//! that runs [`Layer::infer_into`] on a fresh arena.
//!
//! * **Inference** — [`InferPlan`] packages a per-caller arena with a
//!   warm-up pass, so steady-state requests allocate nothing; adjacent
//!   fusable layers (conv → batch-norm → activation, GEMM → activation)
//!   collapse into single fused kernels at plan time.
//! * **Training** — [`TrainPlan`] packages the arena for a whole training
//!   loop: replaced caches recycle the buffer the previous step used
//!   (cross-step reuse), so after the first (warm-up) step a steady-state
//!   training step performs **zero heap allocations**. On the backward
//!   pass, a GEMM-backed layer preceded by a fusable activation absorbs the
//!   activation's gradient mask into its input-gradient kernel's write-back
//!   ([`GradMask`] riding [`mtlsplit_tensor::Epilogue::Mask`]), a `Linear`
//!   layer's bias-gradient reduction runs on the GEMM's single-row GEMV fast
//!   path instead of a separate sum pass, and a network's first layer can
//!   skip its input gradient entirely ([`Layer::backward_into_params_only`]).
//!
//! Fusion and arena reuse never change a bit: a [`Sequential`] pass is
//! bit-identical to running its layers one at a time, each on a fresh
//! arena, for every thread count, and the whole stack is checked against
//! independent naive reference implementations at the workspace level.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use mtlsplit_nn::{
//!     CrossEntropyLoss, Layer, Linear, Optimizer, Relu, RunMode, Sequential, Sgd, TrainPlan,
//! };
//! use mtlsplit_tensor::{StdRng, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let mut rng = StdRng::seed_from(0);
//! let mut net = Sequential::new()
//!     .push(Linear::new(4, 16, &mut rng))
//!     .push(Relu::new())
//!     .push(Linear::new(16, 3, &mut rng));
//! let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut rng);
//! let targets = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//!
//! let mut train_rng = StdRng::seed_from(1);
//! let mut plan = TrainPlan::new();
//! let logits = plan.forward(&mut net, &x, RunMode::train(&mut train_rng))?;
//! let loss = CrossEntropyLoss::new();
//! let (value, grad) = loss.forward_backward(&logits, &targets)?;
//! let grad_input = plan.backward(&mut net, &grad)?;
//! Sgd::new(0.1).step(&mut net.parameters_mut())?;
//! plan.recycle(logits);
//! plan.recycle(grad_input);
//! assert!(value.is_finite());
//!
//! // Inference is immutable: `infer` takes `&self`.
//! let frozen = &net;
//! let predictions = frozen.infer(&x)?;
//! assert_eq!(predictions.dims(), &[8, 3]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod activation;
mod conv_layer;
mod dropout;
mod error;
mod init;
mod linear;
mod loss;
mod norm;
mod optim;
mod param;
mod plan;
mod pool_layer;
mod sequential;

pub use activation::{HardSigmoid, HardSwish, Relu, Sigmoid};
pub use conv_layer::{Conv2d, DepthwiseConv2d, PointwiseConv2d};
pub use dropout::Dropout;
pub use error::{NnError, Result};
pub use init::{kaiming_normal, xavier_uniform};
pub use linear::{Flatten, Linear};
pub use loss::{CrossEntropyLoss, MseLoss};
pub use norm::BatchNorm2d;
pub use optim::{AdamW, LrSchedule, Optimizer, Sgd};
pub use param::Parameter;
pub use plan::{InferPlan, TrainPlan};
pub use pool_layer::{AvgPool2d, GlobalAvgPool2d, MaxPool2d};
pub use sequential::Sequential;

// Re-exported so planned-inference and planned-training callers need no
// direct tensor-crate dependency for the arena/epilogue vocabulary.
pub use mtlsplit_tensor::{ActivationGrad, ChannelNorm, EpilogueActivation, GradMask, TensorArena};

// Re-exported so callers can pull the named per-layer latency profile (one
// entry per possibly-fused layer window, aggregated from the spans the
// planned passes record) without a direct obs-crate dependency.
pub use mtlsplit_obs::{layer_profile, LayerProfile};

use mtlsplit_tensor::{StdRng, Tensor};

/// The typed run mode of a forward pass, replacing the old `training: bool`
/// flag.
///
/// [`RunMode::Train`] carries the RNG that stochastic layers draw from, so
/// layers themselves hold no RNG state and two training runs driven by the
/// same seed are exactly reproducible. [`RunMode::Infer`] runs the pure
/// inference path (dropout is the identity, batch norm reads its running
/// statistics) and writes no caches.
#[derive(Debug)]
pub enum RunMode<'a> {
    /// Training-time behaviour: dropout active (drawing from `rng`), batch
    /// statistics computed and running averages updated, activations cached
    /// for [`Layer::backward_into`].
    Train {
        /// The RNG stochastic layers draw from during this pass.
        rng: &'a mut StdRng,
    },
    /// Inference behaviour: deterministic, cache-free, mutation-free — the
    /// same computation [`Layer::infer_into`] performs through `&self`.
    Infer,
}

impl<'a> RunMode<'a> {
    /// Shorthand for [`RunMode::Train`] borrowing `rng`.
    pub fn train(rng: &'a mut StdRng) -> Self {
        RunMode::Train { rng }
    }

    /// Whether this is the training mode.
    pub fn is_train(&self) -> bool {
        matches!(self, RunMode::Train { .. })
    }

    /// Reborrows the mode so a container can hand it to each child layer in
    /// turn without giving up ownership.
    pub fn reborrow(&mut self) -> RunMode<'_> {
        match self {
            RunMode::Train { rng } => RunMode::Train { rng },
            RunMode::Infer => RunMode::Infer,
        }
    }
}

/// A differentiable network component.
///
/// Layers own their [`Parameter`]s, cache whatever activations they need
/// during a train-mode [`Layer::forward_into`], and consume that cache in
/// [`Layer::backward_into`] to produce the gradient with respect to their
/// input while accumulating gradients into their parameters.
///
/// Each pass has exactly one implementation, and every one of them draws
/// its buffers from a caller-owned [`TensorArena`]:
///
/// * [`Layer::forward_into`] takes `&mut self` plus a [`RunMode`]. In
///   [`RunMode::Train`] it caches activations for the subsequent backward
///   pass; in [`RunMode::Infer`] it behaves exactly like
///   [`Layer::infer_into`] (useful when the caller only holds a `&mut`
///   handle mid-training).
/// * [`Layer::infer_into`] takes `&self` and never mutates: no cache
///   writes, no dropout state, batch norm reads its running statistics. A
///   frozen model can therefore serve concurrent inference from shared
///   (`Arc`) state, which is what the multi-worker `InferenceServer` in
///   `mtlsplit-serve` relies on. The trait requires `Sync` for exactly that
///   reason. [`Layer::infer`] is the same pass on a fresh arena.
///
/// The trait is object-safe so heterogeneous layers can be stored in a
/// [`Sequential`] container.
pub trait Layer: Send + Sync {
    /// Runs the layer on `input` in inference mode through `&self`, on a
    /// fresh [`TensorArena`].
    ///
    /// A convenience for one-off calls: it runs [`Layer::infer_into`] under
    /// the same `infer` span an [`InferPlan`] opens, so the result is
    /// bit-identical to the planned path. Callers that serve many requests
    /// should hold an [`InferPlan`] instead, so buffers are reused across
    /// requests.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let _span = plan::infer_span(input);
        self.infer_into(input, &mut TensorArena::new())
    }

    /// Runs the layer on `input` in inference mode, drawing the output
    /// buffer from `ctx` instead of the heap.
    ///
    /// Implementations take their output storage with
    /// [`TensorArena::take`] (contents unspecified — they must overwrite
    /// every element) and return it as an owned [`Tensor`]; the *caller*
    /// recycles the input once it is done with it. Implementations must not
    /// mutate any state (the signature enforces it short of interior
    /// mutability, which layers must not use).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor>;

    /// If this layer is a pure element-wise activation that a preceding
    /// GEMM-backed layer can absorb into its fused epilogue, returns it.
    ///
    /// [`Sequential`] consults this during its planned inference pass: when
    /// layer `i + 1` reports an activation and layer `i` accepts it via
    /// [`Layer::infer_into_fused`], the pair runs as one fused kernel.
    fn fused_activation(&self) -> Option<EpilogueActivation> {
        None
    }

    /// Runs the layer with `activation` fused into its compute kernel's
    /// epilogue, if the layer supports fusion.
    ///
    /// Returns `None` when the layer cannot absorb the activation (the
    /// default), in which case the caller runs the unfused two-step path.
    /// When fusion happens, the result must be bit-identical to
    /// [`Layer::infer_into`] followed by the activation layer's own
    /// [`Layer::infer_into`].
    fn infer_into_fused(
        &self,
        input: &Tensor,
        activation: EpilogueActivation,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        let _ = (input, activation, ctx);
        None
    }

    /// If this layer is an inference-time per-channel affine normalisation
    /// (batch norm reading its running statistics) that a preceding
    /// convolution can absorb into its epilogue, returns the statistics.
    fn fused_channel_norm(&self) -> Option<ChannelNorm<'_>> {
        None
    }

    /// Runs the layer with a following batch-norm (and optionally the
    /// activation after it) fused into its kernel's write-back.
    ///
    /// Returns `None` when the layer cannot absorb the norm (the default,
    /// and also the right answer when the norm's channel count does not
    /// match — the caller then runs the unfused path, which surfaces the
    /// canonical shape error). When fusion happens, the result must be
    /// bit-identical to the unfused layer → norm → activation chain.
    fn infer_into_normed(
        &self,
        input: &Tensor,
        norm: ChannelNorm<'_>,
        activation: Option<EpilogueActivation>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        let _ = (input, norm, activation, ctx);
        None
    }

    /// Runs the layer under `mode`, drawing the output — and, in
    /// [`RunMode::Train`], every cached activation — from `ctx` instead of
    /// the heap.
    ///
    /// This is the training counterpart of [`Layer::infer_into`]:
    /// implementations take output and cache storage with
    /// [`TensorArena::take`] (contents unspecified — they must overwrite
    /// every element) and recycle the cache buffers they replace, so after
    /// the first (warm-up) step a training loop reuses the same memory
    /// across steps. In [`RunMode::Infer`] the result must equal
    /// [`Layer::infer_into`] and no cache may be written.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor>;

    /// Propagates `grad_output` backwards through the layer, returning the
    /// gradient with respect to the layer input and accumulating parameter
    /// gradients.
    ///
    /// The returned input gradient and every gradient temporary come from
    /// `ctx` (the temporaries go back to the arena once accumulated). The
    /// *caller* recycles the returned tensor once consumed.
    ///
    /// # Errors
    ///
    /// Returns an error if called before a train-mode forward or with a
    /// mismatched gradient shape.
    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor>;

    /// If this layer is a pure element-wise activation whose backward pass a
    /// preceding GEMM-backed layer can absorb into its backward GEMM's
    /// write-back, returns the mask (derivative kind plus the cached forward
    /// input it is evaluated at).
    ///
    /// [`Sequential`] consults this during its planned backward pass: when
    /// layer `i - 1` reports a mask and layer `i` accepts it via
    /// [`Layer::backward_into_masked`], the activation's backward collapses
    /// into layer `i`'s input-gradient GEMM. Returns `None` (the default)
    /// when the layer is not a fusable activation or has no cached forward
    /// input yet.
    fn fused_grad_mask(&self) -> Option<GradMask<'_>> {
        None
    }

    /// Runs the layer's backward pass with a following (in backward order)
    /// activation's gradient mask fused into the input-gradient kernel's
    /// write-back, if the layer supports it.
    ///
    /// Returns `None` when the layer cannot absorb the mask (the default,
    /// and also the right answer when the mask does not align with the
    /// layer's input gradient), in which case the caller runs the unfused
    /// two-step path. When fusion happens, the result must be bit-identical
    /// to [`Layer::backward_into`] followed by the activation layer's own
    /// backward pass.
    fn backward_into_masked(
        &mut self,
        grad_output: &Tensor,
        mask: GradMask<'_>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        let _ = (grad_output, mask, ctx);
        None
    }

    /// Backward pass that accumulates parameter gradients but skips
    /// computing — or even allocating — the gradient with respect to the
    /// layer input.
    ///
    /// This is the planned-training optimisation for a network's *first*
    /// layer, whose input is raw data and needs no gradient: the
    /// input-gradient kernels simply never run. Parameter gradients must be
    /// bit-identical to [`Layer::backward_into`]. Returns `None` (the
    /// default) when the layer has no cheaper params-only path — callers
    /// then run the full backward and discard the input gradient.
    fn backward_into_params_only(
        &mut self,
        grad_output: &Tensor,
        ctx: &mut TensorArena,
    ) -> Option<Result<()>> {
        let _ = (grad_output, ctx);
        None
    }

    /// Visits every trainable parameter in the layer's stable order.
    ///
    /// This is the allocation-free counterpart of
    /// [`Layer::parameters_mut`]: optimizers and `zero_grad` sweeps on the
    /// planned training path walk parameters through this visitor instead
    /// of collecting `Vec`s each step. The default delegates to
    /// [`Layer::parameters_mut`]; layers that own parameters (or children)
    /// override it to visit directly.
    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for p in self.parameters_mut() {
            f(p);
        }
    }

    /// Mutable references to the layer's trainable parameters.
    fn parameters_mut(&mut self) -> Vec<&mut Parameter>;

    /// Immutable references to the layer's trainable parameters.
    fn parameters(&self) -> Vec<&Parameter>;

    /// Total number of trainable scalar parameters.
    fn parameter_count(&self) -> usize {
        self.parameters().iter().map(|p| p.value().len()).sum()
    }

    /// A short human-readable description used in summaries.
    fn name(&self) -> &'static str;
}

/// Replaces a layer's cached tensor with a copy of `source` drawn from the
/// arena, recycling the buffer the previous cache held.
///
/// This is the cross-step reuse discipline of the planned training path:
/// every step's caches are written into the buffers the previous step's
/// caches occupied, so after the warm-up step the cache churn allocates
/// nothing.
pub(crate) fn cache_from_arena(
    slot: &mut Option<Tensor>,
    source: &Tensor,
    ctx: &mut TensorArena,
) -> Result<()> {
    if let Some(old) = slot.take() {
        ctx.recycle(old);
    }
    let mut buffer = ctx.take(source.len());
    buffer.copy_from_slice(source.as_slice());
    *slot = Some(Tensor::from_vec(buffer, source.dims())?);
    Ok(())
}

#[cfg(test)]
mod run_mode_tests {
    use super::*;

    #[test]
    fn run_mode_reborrow_preserves_the_variant() {
        let mut rng = StdRng::seed_from(0);
        let mut train = RunMode::train(&mut rng);
        assert!(train.is_train());
        assert!(train.reborrow().is_train());
        // The original mode is still usable after the reborrow ends.
        assert!(train.is_train());
        let mut infer = RunMode::Infer;
        assert!(!infer.is_train());
        assert!(!infer.reborrow().is_train());
    }

    #[test]
    fn boxed_layers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Layer>();
        assert_send_sync::<Box<dyn Layer>>();
    }
}

#[cfg(test)]
mod typed_error_tests {
    use super::*;
    use mtlsplit_tensor::global_avg_pool2d;

    /// Each layer reports a bad input or gradient shape as the typed error
    /// of the tensor operation it mirrors — an element-wise product, a
    /// flatten, a global pool — and never recurses into another pass.
    #[test]
    fn shape_errors_are_the_canonical_typed_errors() {
        let mut rng = StdRng::seed_from(0);
        let mut ctx = TensorArena::new();
        let cached = Tensor::zeros(&[2, 3]);
        let misaligned = Tensor::zeros(&[3, 2]);
        let product_error = NnError::from(misaligned.mul(&cached).unwrap_err());

        let mut relu = Relu::new();
        relu.forward_into(&cached, RunMode::train(&mut rng), &mut ctx)
            .unwrap();
        assert_eq!(
            relu.backward_into(&misaligned, &mut ctx).unwrap_err(),
            product_error
        );

        let mut dropout = Dropout::new(0.5).unwrap();
        dropout
            .forward_into(&cached, RunMode::train(&mut rng), &mut ctx)
            .unwrap();
        assert_eq!(
            dropout.backward_into(&misaligned, &mut ctx).unwrap_err(),
            product_error
        );

        let scalar = Tensor::scalar(1.0);
        let flatten_error = NnError::from(scalar.flatten_batch().unwrap_err());
        let flatten = Flatten::new();
        assert_eq!(
            flatten.infer_into(&scalar, &mut ctx).unwrap_err(),
            flatten_error
        );
        assert_eq!(flatten.infer(&scalar).unwrap_err(), flatten_error);

        let pool = GlobalAvgPool2d::new();
        for input in [scalar, Tensor::zeros(&[2, 3]), Tensor::zeros(&[1, 2, 3])] {
            let pool_error = NnError::from(global_avg_pool2d(&input).unwrap_err());
            assert_eq!(pool.infer_into(&input, &mut ctx).unwrap_err(), pool_error);
            assert_eq!(pool.infer(&input).unwrap_err(), pool_error);
        }
    }
}
