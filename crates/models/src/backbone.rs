//! The three backbone families and their construction.

use mtlsplit_nn::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool2d, HardSwish, Layer, MaxPool2d,
    NnError, Parameter, PointwiseConv2d, Relu, Result, RunMode, Sequential,
};
use mtlsplit_tensor::{StdRng, Tensor, TensorArena};

use crate::blocks::MbConvBlock;

/// The backbone family, mirroring the paper's three model choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackboneKind {
    /// Plain 3×3 convolution stacks with max pooling (VGG16 analogue).
    VggStyle,
    /// Depthwise-separable convolutions with hard-swish (MobileNetV3 analogue).
    MobileStyle,
    /// Inverted-residual MBConv blocks with squeeze-excite (EfficientNet analogue).
    EfficientStyle,
}

impl BackboneKind {
    /// All three families, in the order the paper's tables list them.
    pub const ALL: [BackboneKind; 3] = [
        BackboneKind::VggStyle,
        BackboneKind::MobileStyle,
        BackboneKind::EfficientStyle,
    ];

    /// The display name used in regenerated tables.
    pub fn display_name(&self) -> &'static str {
        match self {
            BackboneKind::VggStyle => "VGG16 (VggStyle)",
            BackboneKind::MobileStyle => "MobileNetV3 (MobileStyle)",
            BackboneKind::EfficientStyle => "EfficientNet (EfficientStyle)",
        }
    }
}

impl std::fmt::Display for BackboneKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// Configuration for building a backbone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackboneConfig {
    /// Which family to build.
    pub kind: BackboneKind,
    /// Number of input channels (3 for RGB).
    pub in_channels: usize,
    /// Square input side length in pixels.
    pub input_size: usize,
    /// Multiplier applied to every channel width (1.0 = the default width).
    pub width_multiplier: f32,
}

impl BackboneConfig {
    /// Creates a configuration with the default width multiplier.
    pub fn new(kind: BackboneKind, in_channels: usize, input_size: usize) -> Self {
        Self {
            kind,
            in_channels,
            input_size,
            width_multiplier: 1.0,
        }
    }

    /// Sets the width multiplier, returning the updated configuration.
    pub fn with_width_multiplier(mut self, multiplier: f32) -> Self {
        self.width_multiplier = multiplier;
        self
    }

    fn width(&self, base: usize) -> usize {
        ((base as f32 * self.width_multiplier).round() as usize).max(1)
    }
}

/// One candidate split boundary inside a backbone.
///
/// A backbone is a sequence of named stages (conv blocks, pools, the final
/// global-average-pool); cutting the network *after* stage `i` puts layers
/// `[0, layer_end)` on the edge and the rest on the server. Each record
/// carries everything the deployment and the autotuner need to reason about
/// that cut without running a forward pass: the boundary tensor's shape, its
/// per-sample element count (= wire payload elements), and the cumulative
/// multiply-accumulate work of the edge prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitStage {
    /// Stage label, e.g. `"sep2"` or `"gap"`.
    pub label: String,
    /// Number of leading layers in the backbone's layer stack that belong to
    /// the edge prefix when splitting after this stage.
    pub layer_end: usize,
    /// Channels of the boundary activation (feature length once flattened).
    pub channels: usize,
    /// Square spatial side of the boundary activation; `1` once pooled flat.
    pub spatial: usize,
    /// Per-sample elements crossing the wire when splitting here.
    pub elements: usize,
    /// Whether the boundary tensor is already flat (`[batch, elements]`)
    /// rather than NCHW.
    pub flat: bool,
    /// Analytical multiply-accumulate count (per sample) of the edge prefix:
    /// every conv / linear MAC from the input through this stage.
    pub cumulative_macs: u64,
}

impl SplitStage {
    /// Rank of the wire tensor at this boundary: 2 for flat features,
    /// 4 for NCHW activations.
    pub fn wire_rank(&self) -> usize {
        if self.flat {
            2
        } else {
            4
        }
    }
}

/// A shared backbone `M_b(x; psi)`: the edge-resident half of MTL-Split.
///
/// The backbone maps an NCHW image batch to a flat feature matrix
/// `Z_b in [batch, feature_dim]`. It also records the activation footprint of
/// every stage so the Table 4 memory analysis can be computed without
/// re-running a forward pass, and a [`SplitStage`] record per stage boundary
/// so [`Backbone::split_at`] can cut the network at any depth.
pub struct Backbone {
    kind: BackboneKind,
    net: Sequential,
    feature_dim: usize,
    input_size: usize,
    in_channels: usize,
    stage_footprint: Vec<(String, usize)>,
    stages: Vec<SplitStage>,
}

impl std::fmt::Debug for Backbone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backbone")
            .field("kind", &self.kind)
            .field("feature_dim", &self.feature_dim)
            .field("parameters", &self.parameter_count())
            .finish()
    }
}

/// Running shape + MAC tracker used while assembling a backbone.
///
/// The builders interleave layer pushes with tracker calls: shape-mutating
/// helpers (`conv`, `depthwise`, …) advance the running channel count,
/// spatial size and cumulative analytical MAC count, and `stage` snapshots
/// the current boundary — including how many layers the stack holds at that
/// point — into a [`SplitStage`].
struct StageTracker {
    channels: usize,
    size: usize,
    macs: u64,
    stages: Vec<SplitStage>,
}

impl StageTracker {
    fn new(channels: usize, size: usize) -> Self {
        Self {
            channels,
            size,
            macs: 0,
            stages: Vec::new(),
        }
    }

    /// A dense `k×k` convolution with the given stride (padding keeps
    /// `ceil(size / stride)` spatial output).
    fn conv(&mut self, out_channels: usize, kernel: usize, stride: usize) {
        let out_size = self.size.div_ceil(stride);
        self.macs += (kernel * kernel * self.channels * out_channels * out_size * out_size) as u64;
        self.channels = out_channels;
        self.size = out_size;
    }

    /// A depthwise `k×k` convolution (one filter per channel).
    fn depthwise(&mut self, kernel: usize, stride: usize) {
        let out_size = self.size.div_ceil(stride);
        self.macs += (kernel * kernel * self.channels * out_size * out_size) as u64;
        self.size = out_size;
    }

    /// A 1×1 pointwise convolution.
    fn pointwise(&mut self, out_channels: usize) {
        self.macs += (self.channels * out_channels * self.size * self.size) as u64;
        self.channels = out_channels;
    }

    /// A squeeze-excite gate over the current channels (two-layer MLP on the
    /// pooled vector; its MACs are spatial-size independent).
    fn squeeze_excite(&mut self, reduction: usize) {
        let hidden = (self.channels / reduction.max(1)).max(1);
        self.macs += (2 * self.channels * hidden) as u64;
    }

    /// An MBConv block: pointwise expansion → depthwise 3×3 → squeeze-excite
    /// → pointwise projection. Mirrors `MbConvBlock::new`.
    fn mbconv(&mut self, out_channels: usize, expansion: usize, stride: usize) {
        let hidden = (self.channels * expansion).max(1);
        self.pointwise(hidden);
        self.depthwise(3, stride);
        self.squeeze_excite(4);
        self.pointwise(out_channels);
    }

    /// A max pool over `window` (no MACs).
    fn pool(&mut self, window: usize) {
        self.size = (self.size / window).max(1);
    }

    /// Records a spatial (NCHW) stage boundary after `layer_end` layers.
    fn stage(&mut self, label: &str, layer_end: usize) {
        self.stages.push(SplitStage {
            label: label.to_string(),
            layer_end,
            channels: self.channels,
            spatial: self.size,
            elements: self.channels * self.size * self.size,
            flat: false,
            cumulative_macs: self.macs,
        });
    }

    /// Records the final flat stage (after global average pool + flatten).
    fn flat_stage(&mut self, label: &str, layer_end: usize) {
        self.stages.push(SplitStage {
            label: label.to_string(),
            layer_end,
            channels: self.channels,
            spatial: 1,
            elements: self.channels,
            flat: true,
            cumulative_macs: self.macs,
        });
    }
}

impl Backbone {
    /// Builds a backbone of the configured family.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is too small for the family's stride
    /// pattern (each family needs at least a 12-pixel input so its deepest
    /// stage keeps a positive spatial extent).
    pub fn new(config: BackboneConfig, rng: &mut StdRng) -> Result<Self> {
        if config.input_size < 12 {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "input size {} too small for {:?} (minimum 12)",
                    config.input_size, config.kind
                ),
            });
        }
        if config.in_channels == 0 {
            return Err(NnError::InvalidConfig {
                reason: "in_channels must be positive".to_string(),
            });
        }
        let (net, feature_dim, stages) = match config.kind {
            BackboneKind::VggStyle => build_vgg(&config, rng),
            BackboneKind::MobileStyle => build_mobile(&config, rng),
            BackboneKind::EfficientStyle => build_efficient(&config, rng),
        };
        debug_assert_eq!(
            stages.last().map(|s| s.layer_end),
            Some(net.len()),
            "the final stage must cover the whole stack"
        );
        let stage_footprint = stages
            .iter()
            .map(|s| (s.label.clone(), s.elements))
            .collect();
        Ok(Self {
            kind: config.kind,
            net,
            feature_dim,
            input_size: config.input_size,
            in_channels: config.in_channels,
            stage_footprint,
            stages,
        })
    }

    /// The backbone family.
    pub fn kind(&self) -> BackboneKind {
        self.kind
    }

    /// Length of the flattened shared representation `Z_b` per sample.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The square input size the backbone was built for.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Number of input channels the backbone was built for.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Per-stage activation element counts (per sample), in execution order.
    pub fn stage_footprint(&self) -> &[(String, usize)] {
        &self.stage_footprint
    }

    /// Every candidate split boundary, in execution order. Aligned one-to-one
    /// with [`Backbone::stage_footprint`]; the last stage is the flattened
    /// feature vector (the classic pre-head split).
    pub fn stages(&self) -> &[SplitStage] {
        &self.stages
    }

    /// Number of candidate split boundaries.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Index of the default (deepest) split: after the final stage, so the
    /// entire backbone runs on the edge and only the flat feature vector
    /// crosses the wire. This is the behavior all prior deployments used.
    pub fn default_split(&self) -> usize {
        self.stages.len() - 1
    }

    /// Cuts the backbone after stage `stage`, consuming it.
    ///
    /// Returns `(edge, tail)`: `edge` holds layers `[0, layer_end)` of the
    /// stage and `tail` the remainder (empty at the default split). Running
    /// `edge` then `tail` is bit-identical to the monolithic backbone —
    /// fused epilogues are 0-ULP equal to their unfused chains, so no cut
    /// point changes any output bit.
    ///
    /// # Errors
    ///
    /// Returns an error if `stage` is out of range.
    pub fn split_at(self, stage: usize) -> Result<(Sequential, Sequential)> {
        let Some(boundary) = self.stages.get(stage) else {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "split stage {stage} out of range for {:?} ({} stages)",
                    self.kind,
                    self.stages.len()
                ),
            });
        };
        let mut edge = self.net;
        let tail = edge.split_off(boundary.layer_end);
        Ok((edge, tail))
    }

    /// The backward pass with the image gradient discarded: raw
    /// pixels need no gradient, so the first stage skips its input-gradient
    /// kernels entirely. Parameter gradients are bit-identical to
    /// [`Layer::backward_into`] followed by discarding its result.
    ///
    /// # Errors
    ///
    /// Returns an error if called before a train-mode forward or with a
    /// mismatched gradient shape.
    pub fn backward_into_discarding_input(
        &mut self,
        grad_output: &Tensor,
        ctx: &mut TensorArena,
    ) -> Result<()> {
        self.net.backward_into_discarding_input(grad_output, ctx)
    }

    /// Total activation elements per sample across all stages.
    pub fn activation_elements(&self) -> usize {
        self.stage_footprint.iter().map(|(_, n)| n).sum()
    }
}

impl Layer for Backbone {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        self.net.forward_into(input, mode, ctx)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        self.net.infer_into(input, ctx)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
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
        "Backbone"
    }
}

fn build_vgg(config: &BackboneConfig, rng: &mut StdRng) -> (Sequential, usize, Vec<SplitStage>) {
    let c1 = config.width(16);
    let c2 = config.width(32);
    let c3 = config.width(64);
    let mut tracker = StageTracker::new(config.in_channels, config.input_size);
    let mut net = Sequential::new()
        .push(Conv2d::new(config.in_channels, c1, 3, 1, 1, rng))
        .push(Relu::new());
    tracker.conv(c1, 3, 1);
    tracker.stage("conv1_1", net.len());
    net = net
        .push(Conv2d::new(c1, c1, 3, 1, 1, rng))
        .push(Relu::new());
    tracker.conv(c1, 3, 1);
    tracker.stage("conv1_2", net.len());
    net = net.push(MaxPool2d::new(2, 2));
    tracker.pool(2);
    tracker.stage("pool1", net.len());

    net = net
        .push(Conv2d::new(c1, c2, 3, 1, 1, rng))
        .push(Relu::new());
    tracker.conv(c2, 3, 1);
    tracker.stage("conv2_1", net.len());
    net = net
        .push(Conv2d::new(c2, c2, 3, 1, 1, rng))
        .push(Relu::new());
    tracker.conv(c2, 3, 1);
    tracker.stage("conv2_2", net.len());
    net = net.push(MaxPool2d::new(2, 2));
    tracker.pool(2);
    tracker.stage("pool2", net.len());

    net = net
        .push(Conv2d::new(c2, c3, 3, 1, 1, rng))
        .push(Relu::new());
    tracker.conv(c3, 3, 1);
    tracker.stage("conv3_1", net.len());
    net = net
        .push(Conv2d::new(c3, c3, 3, 1, 1, rng))
        .push(Relu::new());
    tracker.conv(c3, 3, 1);
    tracker.stage("conv3_2", net.len());
    net = net.push(MaxPool2d::new(2, 2));
    tracker.pool(2);
    tracker.stage("pool3", net.len());

    net = net.push(GlobalAvgPool2d::new()).push(Flatten::new());
    tracker.flat_stage("gap", net.len());
    (net, c3, tracker.stages)
}

fn build_mobile(config: &BackboneConfig, rng: &mut StdRng) -> (Sequential, usize, Vec<SplitStage>) {
    let c_stem = config.width(8);
    let c1 = config.width(16);
    let c2 = config.width(24);
    let c3 = config.width(32);
    let mut tracker = StageTracker::new(config.in_channels, config.input_size);

    let mut net = Sequential::new()
        .push(Conv2d::new(config.in_channels, c_stem, 3, 2, 1, rng))
        .push(BatchNorm2d::new(c_stem))
        .push(HardSwish::new());
    tracker.conv(c_stem, 3, 2);
    tracker.stage("stem", net.len());

    let separable = |net: Sequential,
                     tracker: &mut StageTracker,
                     in_c: usize,
                     out_c: usize,
                     stride: usize,
                     label: &str,
                     rng: &mut StdRng| {
        let net = net
            .push(DepthwiseConv2d::new(in_c, 3, stride, 1, rng))
            .push(BatchNorm2d::new(in_c))
            .push(HardSwish::new())
            .push(PointwiseConv2d::new(in_c, out_c, rng))
            .push(BatchNorm2d::new(out_c))
            .push(HardSwish::new());
        tracker.depthwise(3, stride);
        tracker.pointwise(out_c);
        tracker.stage(label, net.len());
        net
    };

    net = separable(net, &mut tracker, c_stem, c1, 1, "sep1", rng);
    net = separable(net, &mut tracker, c1, c2, 2, "sep2", rng);
    net = separable(net, &mut tracker, c2, c3, 1, "sep3", rng);

    net = net.push(GlobalAvgPool2d::new()).push(Flatten::new());
    tracker.flat_stage("gap", net.len());
    (net, c3, tracker.stages)
}

fn build_efficient(
    config: &BackboneConfig,
    rng: &mut StdRng,
) -> (Sequential, usize, Vec<SplitStage>) {
    let c_stem = config.width(12);
    let c1 = config.width(16);
    let c2 = config.width(24);
    let c3 = config.width(40);
    let mut tracker = StageTracker::new(config.in_channels, config.input_size);

    let mut net = Sequential::new()
        .push(Conv2d::new(config.in_channels, c_stem, 3, 2, 1, rng))
        .push(BatchNorm2d::new(c_stem))
        .push(HardSwish::new());
    tracker.conv(c_stem, 3, 2);
    tracker.stage("stem", net.len());

    net = net.push(MbConvBlock::new(c_stem, c1, 2, 1, rng));
    tracker.mbconv(c1, 2, 1);
    tracker.stage("mbconv1", net.len());
    net = net.push(MbConvBlock::new(c1, c2, 3, 2, rng));
    tracker.mbconv(c2, 3, 2);
    tracker.stage("mbconv2", net.len());
    net = net.push(MbConvBlock::new(c2, c2, 3, 1, rng));
    tracker.mbconv(c2, 3, 1);
    tracker.stage("mbconv3", net.len());
    net = net.push(MbConvBlock::new(c2, c3, 3, 2, rng));
    tracker.mbconv(c3, 3, 2);
    tracker.stage("mbconv4", net.len());

    net = net.push(GlobalAvgPool2d::new()).push(Flatten::new());
    tracker.flat_stage("gap", net.len());
    (net, c3, tracker.stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(kind: BackboneKind, size: usize) -> Backbone {
        let mut rng = StdRng::seed_from(1);
        Backbone::new(BackboneConfig::new(kind, 3, size), &mut rng).unwrap()
    }

    #[test]
    fn every_family_produces_flat_features() {
        for kind in BackboneKind::ALL {
            let mut backbone = build(kind, 24);
            let mut rng = StdRng::seed_from(9);
            let x = Tensor::zeros(&[2, 3, 24, 24]);
            let z = backbone
                .forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
                .unwrap();
            assert_eq!(z.dims(), &[2, backbone.feature_dim()], "{kind}");
            // The &self inference path produces the same shape.
            assert_eq!(backbone.infer(&x).unwrap().dims(), z.dims(), "{kind}");
        }
    }

    #[test]
    fn parameter_count_ordering_matches_the_paper() {
        // VGG is the heaviest, MobileNet the lightest, EfficientNet in between.
        let vgg = build(BackboneKind::VggStyle, 24).parameter_count();
        let mobile = build(BackboneKind::MobileStyle, 24).parameter_count();
        let efficient = build(BackboneKind::EfficientStyle, 24).parameter_count();
        assert!(vgg > efficient, "vgg {vgg} vs efficient {efficient}");
        assert!(
            efficient > mobile,
            "efficient {efficient} vs mobile {mobile}"
        );
    }

    #[test]
    fn backward_flows_through_every_family() {
        for kind in BackboneKind::ALL {
            let mut backbone = build(kind, 20);
            let mut rng = StdRng::seed_from(2);
            let x = Tensor::randn(&[2, 3, 20, 20], 0.0, 1.0, &mut rng);
            let z = backbone
                .forward_into(&x, RunMode::train(&mut rng), &mut TensorArena::new())
                .unwrap();
            let grad = backbone
                .backward_into(&Tensor::ones(z.dims()), &mut TensorArena::new())
                .unwrap();
            assert_eq!(grad.dims(), x.dims());
            let nonzero = backbone
                .parameters()
                .iter()
                .filter(|p| p.grad().squared_norm() > 0.0)
                .count();
            assert!(nonzero > 0, "{kind} produced no parameter gradients");
        }
    }

    #[test]
    fn width_multiplier_scales_parameters() {
        let mut rng = StdRng::seed_from(3);
        let narrow = Backbone::new(
            BackboneConfig::new(BackboneKind::VggStyle, 3, 24).with_width_multiplier(0.5),
            &mut rng,
        )
        .unwrap();
        let wide = Backbone::new(
            BackboneConfig::new(BackboneKind::VggStyle, 3, 24).with_width_multiplier(2.0),
            &mut rng,
        )
        .unwrap();
        assert!(wide.parameter_count() > narrow.parameter_count() * 4);
    }

    #[test]
    fn feature_dim_is_much_smaller_than_input() {
        // The whole point of the split: Z_b is far smaller than the raw image.
        for kind in BackboneKind::ALL {
            let backbone = build(kind, 28);
            assert!(backbone.feature_dim() * 8 < 3 * 28 * 28, "{kind}");
        }
    }

    #[test]
    fn stage_footprint_is_recorded() {
        let backbone = build(BackboneKind::MobileStyle, 24);
        assert!(!backbone.stage_footprint().is_empty());
        assert!(backbone.activation_elements() > backbone.feature_dim());
        // The last recorded stage is the pooled feature vector.
        assert_eq!(
            backbone.stage_footprint().last().unwrap().1,
            backbone.feature_dim()
        );
    }

    #[test]
    fn stages_align_with_the_footprint_and_cover_the_stack() {
        for kind in BackboneKind::ALL {
            let backbone = build(kind, 24);
            let stages = backbone.stages();
            assert_eq!(stages.len(), backbone.stage_footprint().len(), "{kind}");
            for (stage, (label, elements)) in stages.iter().zip(backbone.stage_footprint()) {
                assert_eq!(&stage.label, label, "{kind}");
                assert_eq!(stage.elements, *elements, "{kind}");
            }
            let last = stages.last().unwrap();
            assert!(last.flat, "{kind}");
            assert_eq!(last.elements, backbone.feature_dim(), "{kind}");
            assert_eq!(backbone.default_split(), stages.len() - 1, "{kind}");
            // MAC counts are strictly increasing except across pure pool
            // stages, and layer boundaries are strictly increasing.
            for pair in stages.windows(2) {
                assert!(pair[1].cumulative_macs >= pair[0].cumulative_macs, "{kind}");
                assert!(pair[1].layer_end > pair[0].layer_end, "{kind}");
            }
            assert!(last.cumulative_macs > 0, "{kind}");
        }
    }

    #[test]
    fn splitting_at_any_stage_composes_to_the_monolithic_forward_bitwise() {
        let mut rng = StdRng::seed_from(7);
        let x = Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        for kind in BackboneKind::ALL {
            let reference = build(kind, 16);
            let expected = reference.infer(&x).unwrap();
            for stage in 0..reference.stage_count() {
                let boundary = reference.stages()[stage].clone();
                let (edge, tail) = build(kind, 16).split_at(stage).unwrap();
                let z = edge.infer(&x).unwrap();
                if boundary.flat {
                    assert_eq!(z.dims(), &[2, boundary.elements], "{kind} stage {stage}");
                } else {
                    assert_eq!(
                        z.dims(),
                        &[2, boundary.channels, boundary.spatial, boundary.spatial],
                        "{kind} stage {stage}"
                    );
                }
                let out = tail.infer(&z).unwrap();
                assert_eq!(out, expected, "{kind} stage {stage}");
            }
        }
    }

    #[test]
    fn split_at_rejects_out_of_range_stages() {
        let backbone = build(BackboneKind::MobileStyle, 16);
        let count = backbone.stage_count();
        assert!(backbone.split_at(count).is_err());
    }

    #[test]
    fn rejects_too_small_inputs() {
        let mut rng = StdRng::seed_from(4);
        assert!(Backbone::new(
            BackboneConfig::new(BackboneKind::EfficientStyle, 3, 8),
            &mut rng
        )
        .is_err());
        assert!(
            Backbone::new(BackboneConfig::new(BackboneKind::VggStyle, 0, 24), &mut rng).is_err()
        );
    }

    #[test]
    fn display_names_mention_the_paper_models() {
        assert!(BackboneKind::VggStyle.to_string().contains("VGG16"));
        assert!(BackboneKind::MobileStyle
            .to_string()
            .contains("MobileNetV3"));
        assert!(BackboneKind::EfficientStyle
            .to_string()
            .contains("EfficientNet"));
    }
}
