//! Task-solving heads: the small MLPs deployed on the remote server.

use mtlsplit_nn::{Layer, Linear, NnError, Parameter, Relu, Result, RunMode, Sequential};
use mtlsplit_tensor::{StdRng, Tensor, TensorArena};

/// A task-solving head `H_j(Z_b; theta_j)`.
///
/// As in the paper, each head is "a custom MultiLayer Perceptron composed of
/// two linear layers activated by the ReLU function": `Linear → ReLU →
/// Linear`, mapping the shared representation `Z_b` to per-class logits for
/// one task.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use mtlsplit_models::TaskHead;
/// use mtlsplit_nn::Layer;
/// use mtlsplit_tensor::{StdRng, Tensor};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut rng = StdRng::seed_from(0);
/// let head = TaskHead::new("object_type", 64, 32, 4, &mut rng)?;
/// let z = Tensor::zeros(&[8, 64]);
/// let logits = head.infer(&z)?;
/// assert_eq!(logits.dims(), &[8, 4]);
/// # Ok(())
/// # }
/// ```
pub struct TaskHead {
    name: String,
    classes: usize,
    in_features: usize,
    net: Sequential,
}

impl std::fmt::Debug for TaskHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHead")
            .field("name", &self.name)
            .field("classes", &self.classes)
            .field("in_features", &self.in_features)
            .field("parameters", &self.parameter_count())
            .finish()
    }
}

impl TaskHead {
    /// Creates a head for a task with `classes` classes, reading
    /// `in_features` shared features through a hidden layer of width
    /// `hidden`.
    ///
    /// # Errors
    ///
    /// Returns an error if any dimension is zero.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        hidden: usize,
        classes: usize,
        rng: &mut StdRng,
    ) -> Result<Self> {
        if in_features == 0 || hidden == 0 || classes == 0 {
            return Err(NnError::InvalidConfig {
                reason: "task head dimensions must be positive".to_string(),
            });
        }
        let net = Sequential::new()
            .push(Linear::new(in_features, hidden, rng))
            .push(Relu::new())
            .push(Linear::new(hidden, classes, rng));
        Ok(Self {
            name: name.into(),
            classes,
            in_features,
            net,
        })
    }

    /// The task name this head solves.
    pub fn task_name(&self) -> &str {
        &self.name
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of shared features the head consumes.
    pub fn in_features(&self) -> usize {
        self.in_features
    }
}

impl Layer for TaskHead {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        self.net.forward_into(input, mode, ctx)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        // The Linear→ReLU pair inside fuses into one GEMM.
        self.net.infer_into(input, ctx)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        // The ReLU's gradient mask fuses into the second Linear's backward
        // GEMM.
        self.net.backward_into(grad_output, ctx)
    }

    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.net.for_each_parameter(f);
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.net.parameters_mut()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.net.parameters()
    }

    fn name(&self) -> &'static str {
        "TaskHead"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::{Backbone, BackboneConfig, BackboneKind};

    #[test]
    fn head_maps_features_to_logits() {
        let mut rng = StdRng::seed_from(1);
        let head = TaskHead::new("severity", 32, 16, 3, &mut rng).unwrap();
        let z = Tensor::zeros(&[4, 32]);
        let logits = head.infer(&z).unwrap();
        assert_eq!(logits.dims(), &[4, 3]);
        assert_eq!(head.classes(), 3);
        assert_eq!(head.task_name(), "severity");
    }

    #[test]
    fn head_parameter_count_is_two_linear_layers() {
        let mut rng = StdRng::seed_from(2);
        let head = TaskHead::new("t", 10, 6, 4, &mut rng).unwrap();
        assert_eq!(head.parameter_count(), 10 * 6 + 6 + 6 * 4 + 4);
    }

    #[test]
    fn head_rejects_zero_dimensions() {
        let mut rng = StdRng::seed_from(3);
        assert!(TaskHead::new("t", 0, 4, 2, &mut rng).is_err());
        assert!(TaskHead::new("t", 4, 0, 2, &mut rng).is_err());
        assert!(TaskHead::new("t", 4, 4, 0, &mut rng).is_err());
    }

    #[test]
    fn head_is_smaller_than_every_backbone() {
        // The paper notes the heads are individually smaller than the backbone.
        let mut rng = StdRng::seed_from(4);
        for kind in BackboneKind::ALL {
            let backbone = Backbone::new(BackboneConfig::new(kind, 3, 24), &mut rng).unwrap();
            let head = TaskHead::new("t", backbone.feature_dim(), 32, 10, &mut rng).unwrap();
            assert!(
                head.parameter_count() < backbone.parameter_count(),
                "{kind}"
            );
        }
    }

    #[test]
    fn head_backward_flows_gradient() {
        let mut rng = StdRng::seed_from(5);
        let mut head = TaskHead::new("t", 8, 4, 2, &mut rng).unwrap();
        let z = Tensor::randn(&[3, 8], 0.0, 1.0, &mut rng);
        let logits = head
            .forward_into(&z, RunMode::train(&mut rng), &mut TensorArena::new())
            .unwrap();
        let grad = head
            .backward_into(&Tensor::ones(logits.dims()), &mut TensorArena::new())
            .unwrap();
        assert_eq!(grad.dims(), z.dims());
    }
}
