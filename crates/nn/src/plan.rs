//! The planned, zero-allocation inference and training runtimes.
//!
//! An [`InferPlan`] pairs a frozen layer stack with a reusable
//! [`TensorArena`]: the first request through [`InferPlan::run`] sizes every
//! intermediate buffer (including convolution scratch, which lives in
//! thread-local storage inside the kernels) and each later request is served
//! entirely from recycled memory — zero heap allocations per request in
//! steady state. [`InferPlan::prepare`] performs that shape-inference
//! warm-up explicitly, so even the first production request is
//! allocation-free.
//!
//! The plan never changes results: it only decides which arena the layers'
//! single implementation draws from. Buffer reuse and fused epilogues are
//! bit-identical to running the layers one at a time on fresh arenas, for
//! every thread count (property-tested at the workspace level).

use mtlsplit_obs as obs;
use mtlsplit_tensor::{Tensor, TensorArena};

use crate::error::Result;
use crate::{Layer, RunMode};

/// The leading dimension of a tensor, for span dims (0 for scalars).
fn batch_dim(t: &Tensor) -> u32 {
    t.dims().first().copied().unwrap_or(0) as u32
}

/// The plan-level span an inference pass runs under, so the per-layer
/// profile counts its layer spans as inference.
pub(crate) fn infer_span(input: &Tensor) -> obs::Span {
    obs::span_dims("infer", obs::SpanKind::Plan, [batch_dim(input), 0, 0, 0])
}

/// A per-caller inference plan: one reusable arena plus the take/recycle
/// discipline that keeps the steady-state request path allocation-free.
///
/// A plan is cheap to create and intentionally *not* shared: every serving
/// worker (or benchmark thread) owns its own `InferPlan`, while the frozen
/// `Box<dyn Layer>` stack itself stays shared behind an `Arc`.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use mtlsplit_nn::{InferPlan, Layer, Linear, Relu, Sequential};
/// use mtlsplit_tensor::{StdRng, Tensor};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut rng = StdRng::seed_from(0);
/// let net = Sequential::new()
///     .push(Linear::new(8, 16, &mut rng))
///     .push(Relu::new())
///     .push(Linear::new(16, 4, &mut rng));
/// let mut plan = InferPlan::new();
/// let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut rng);
/// plan.prepare(&net, &x)?; // warm-up: sizes and pools every buffer
/// let y = plan.run(&net, &x)?; // steady state: zero heap allocations
/// assert_eq!(y, net.infer(&x)?); // bit-identical to a one-off call
/// plan.recycle(y); // hand the output buffer back for the next request
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct InferPlan {
    arena: TensorArena,
}

impl InferPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self {
            arena: TensorArena::new(),
        }
    }

    /// Runs `layer` on `input` through the planned path, reusing the plan's
    /// arena for every intermediate.
    ///
    /// The returned tensor's buffer belongs to the arena's recycling cycle:
    /// hand it back with [`InferPlan::recycle`] once consumed, or the next
    /// request has to allocate a replacement.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is incompatible with the layer.
    pub fn run(&mut self, layer: &dyn Layer, input: &Tensor) -> Result<Tensor> {
        let _span = infer_span(input);
        layer.infer_into(input, &mut self.arena)
    }

    /// Warm-up: runs `layer` once on a representative input and recycles the
    /// result, so every buffer the stack needs is pooled before the first
    /// real request.
    ///
    /// # Errors
    ///
    /// Returns an error if the example input is incompatible with the layer.
    pub fn prepare(&mut self, layer: &dyn Layer, example: &Tensor) -> Result<()> {
        let output = self.run(layer, example)?;
        self.recycle(output);
        Ok(())
    }

    /// Returns a finished output tensor's buffer to the arena.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.arena.recycle(tensor);
    }

    /// The plan's arena, e.g. to inspect allocation counters in tests and
    /// benchmarks.
    pub fn arena(&mut self) -> &mut TensorArena {
        &mut self.arena
    }

    /// How many arena takes had to allocate fresh memory so far — stable in
    /// steady state (the zero-allocation guarantee).
    pub fn fresh_allocations(&self) -> usize {
        self.arena.fresh_allocations()
    }
}

/// A per-caller *training* plan: one reusable arena backing the planned
/// [`Layer::forward_into`] / [`Layer::backward_into`] path, the sibling of
/// [`InferPlan`] for the training step.
///
/// One `TrainPlan` is meant to live as long as the training loop: the first
/// step through it is the warm-up that sizes every activation, cached
/// input, and gradient buffer; every later step — across batches *and*
/// epochs — is served entirely from recycled memory (zero steady-state heap
/// allocations per step, machine-checked by `benches/training.rs`). Layer
/// caches written during a planned forward recycle the buffer they replace
/// into the same arena, which is what makes the reuse cross-step rather
/// than merely intra-step.
///
/// The plan never changes results: a planned training step is
/// bit-identical (0 ULP, parameter-for-parameter over a whole run) to the
/// same layers stepped one at a time on fresh arenas, for every thread
/// count (property-tested at the workspace level).
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use mtlsplit_nn::{Layer, Linear, Relu, Sequential, TrainPlan, RunMode};
/// use mtlsplit_tensor::{StdRng, Tensor};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut rng = StdRng::seed_from(0);
/// let mut net = Sequential::new()
///     .push(Linear::new(8, 16, &mut rng))
///     .push(Relu::new())
///     .push(Linear::new(16, 4, &mut rng));
/// let mut plan = TrainPlan::new();
/// let mut train_rng = StdRng::seed_from(1);
/// let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut rng);
/// // Warm-up step: sizes and pools every buffer. Later steps reuse them.
/// let y = plan.forward(&mut net, &x, RunMode::train(&mut train_rng))?;
/// let grad = plan.backward(&mut net, &Tensor::ones(y.dims()))?;
/// plan.recycle(y);
/// plan.recycle(grad);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct TrainPlan {
    arena: TensorArena,
}

impl TrainPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self {
            arena: TensorArena::new(),
        }
    }

    /// Runs `layer` forward under `mode` through the planned path, drawing
    /// outputs and training caches from the plan's arena.
    ///
    /// The returned tensor belongs to the arena's recycling cycle: hand it
    /// back with [`TrainPlan::recycle`] once consumed.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is incompatible with the layer.
    pub fn forward(
        &mut self,
        layer: &mut dyn Layer,
        input: &Tensor,
        mode: RunMode<'_>,
    ) -> Result<Tensor> {
        let _span = obs::span_dims("forward", obs::SpanKind::Plan, [batch_dim(input), 0, 0, 0]);
        layer.forward_into(input, mode, &mut self.arena)
    }

    /// Propagates `grad_output` backwards through `layer` on the planned
    /// path, drawing the input gradient and every gradient temporary from
    /// the plan's arena.
    ///
    /// # Errors
    ///
    /// Returns an error if called before a train-mode forward or with a
    /// mismatched gradient shape.
    pub fn backward(&mut self, layer: &mut dyn Layer, grad_output: &Tensor) -> Result<Tensor> {
        let _span = obs::span_dims(
            "backward",
            obs::SpanKind::Plan,
            [batch_dim(grad_output), 0, 0, 0],
        );
        layer.backward_into(grad_output, &mut self.arena)
    }

    /// Returns a finished tensor's buffer to the arena.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.arena.recycle(tensor);
    }

    /// The plan's arena, e.g. to thread through a hand-rolled training step
    /// or inspect allocation counters in tests and benchmarks.
    pub fn arena(&mut self) -> &mut TensorArena {
        &mut self.arena
    }

    /// How many arena takes had to allocate fresh memory so far — stable in
    /// steady state (the zero-allocation guarantee: the warm-up step grows
    /// it, later steps must not).
    pub fn fresh_allocations(&self) -> usize {
        self.arena.fresh_allocations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu, Sequential};
    use mtlsplit_tensor::StdRng;

    fn mlp_layers(seed: u64) -> Vec<Box<dyn Layer>> {
        let mut rng = StdRng::seed_from(seed);
        vec![
            Box::new(Linear::new(6, 12, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(12, 3, &mut rng)),
        ]
    }

    fn mlp(seed: u64) -> Sequential {
        let mut net = Sequential::new();
        for layer in mlp_layers(seed) {
            net.push_boxed(layer);
        }
        net
    }

    #[test]
    fn planned_run_matches_allocating_infer() {
        // The plan (one reused arena, fused Linear→Relu) against the same
        // layers called one at a time, each on a fresh arena.
        let net = mlp(1);
        let unfused = mlp_layers(1);
        let mut plan = InferPlan::new();
        let mut rng = StdRng::seed_from(2);
        for _ in 0..4 {
            let x = Tensor::randn(&[3, 6], 0.0, 1.0, &mut rng);
            let planned = plan.run(&net, &x).unwrap();
            let expected = unfused
                .iter()
                .fold(x.clone(), |current, layer| layer.infer(&current).unwrap());
            assert_eq!(planned, expected);
            assert_eq!(planned, net.infer(&x).unwrap());
            plan.recycle(planned);
        }
    }

    #[test]
    fn steady_state_requests_take_no_fresh_memory() {
        let net = mlp(3);
        let mut plan = InferPlan::new();
        let mut rng = StdRng::seed_from(4);
        let x = Tensor::randn(&[2, 6], 0.0, 1.0, &mut rng);
        plan.prepare(&net, &x).unwrap();
        let warmed = plan.fresh_allocations();
        for _ in 0..16 {
            let y = plan.run(&net, &x).unwrap();
            plan.recycle(y);
        }
        assert_eq!(
            plan.fresh_allocations(),
            warmed,
            "steady-state planned inference must not allocate"
        );
    }

    #[test]
    fn planned_training_steps_match_allocating_path_and_stop_allocating() {
        // The same weights and RNG streams twice: once as separate layers
        // stepped one at a time on fresh arenas (no mask fusion, no buffer
        // reuse), once as a Sequential through the TrainPlan. Outputs,
        // gradients, and accumulated parameter gradients must stay `==`;
        // after the warm-up step the plan must take no fresh memory.
        let mut reference = mlp_layers(11);
        let mut planned = mlp(11);
        let mut ref_rng = StdRng::seed_from(12);
        let mut plan_rng = StdRng::seed_from(12);
        let mut plan = TrainPlan::new();
        let mut data_rng = StdRng::seed_from(13);
        let mut warmed = None;
        for step in 0..6 {
            let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut data_rng);
            let mut y_ref = x.clone();
            for layer in reference.iter_mut() {
                y_ref = layer
                    .forward_into(
                        &y_ref,
                        RunMode::train(&mut ref_rng),
                        &mut TensorArena::new(),
                    )
                    .unwrap();
            }
            let mut g_ref = Tensor::ones(y_ref.dims());
            for layer in reference.iter_mut().rev() {
                g_ref = layer
                    .backward_into(&g_ref, &mut TensorArena::new())
                    .unwrap();
            }

            let y = plan
                .forward(&mut planned, &x, RunMode::train(&mut plan_rng))
                .unwrap();
            assert_eq!(y, y_ref, "step {step}: planned forward diverged");
            let g = plan
                .backward(&mut planned, &Tensor::ones(y.dims()))
                .unwrap();
            assert_eq!(g, g_ref, "step {step}: planned backward diverged");
            let reference_params = reference.iter().flat_map(|layer| layer.parameters());
            for (a, b) in planned.parameters().into_iter().zip(reference_params) {
                assert_eq!(a.grad(), b.grad(), "step {step}: parameter grads diverged");
            }
            plan.recycle(y);
            plan.recycle(g);
            if step == 0 {
                warmed = Some(plan.fresh_allocations());
            }
        }
        assert_eq!(
            plan.fresh_allocations(),
            warmed.unwrap(),
            "steady-state planned training must not take fresh memory"
        );
    }

    #[test]
    fn shrinking_batches_reuse_warmup_buffers() {
        let net = mlp(5);
        let mut plan = InferPlan::new();
        let mut rng = StdRng::seed_from(6);
        plan.prepare(&net, &Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng))
            .unwrap();
        let warmed = plan.fresh_allocations();
        for batch in [1usize, 3, 2, 4] {
            let x = Tensor::randn(&[batch, 6], 0.0, 1.0, &mut rng);
            let y = plan.run(&net, &x).unwrap();
            assert_eq!(y, net.infer(&x).unwrap());
            plan.recycle(y);
        }
        assert_eq!(plan.fresh_allocations(), warmed);
    }
}
