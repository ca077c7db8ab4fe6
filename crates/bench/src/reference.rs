//! Independent reference implementations: the oracle the bit-identity
//! checks compare the production layers against.
//!
//! Every layer in `mtlsplit-nn` has exactly one implementation, so a check
//! that compares a fused or arena-backed pass against another pass of the
//! same code can only catch fusion and buffer-reuse bugs. These modules are
//! earlier, naive formulations of the same arithmetic, kept verbatim; none
//! of them goes through a `mtlsplit-nn` layer:
//!
//! * [`pr3`] — the PR-3 layer-wise inference path: its own packed GEMM
//!   (sharing only the scalar `fused_mul_add`), per-unit im2col
//!   convolutions, separate batch-norm and activation passes, bias prefill
//!   through `beta == 1`, plus the bench stacks and serving heads it runs.
//!   Pooling uses the tensor crate's allocating pooling kernels.
//! * [`seed`] — the seed training step: allocating forward and backward
//!   for every op, the generic lowered convolution backward (im2col,
//!   col2im), and an allocating AdamW. Its GEMMs call the tensor crate's
//!   `sgemm`, so it checks the layers built on the GEMM, not the GEMM
//!   kernel itself.
//!
//! The inference and training benches gate on them before timing
//! anything, and the workspace tests (`tests/properties.rs`,
//! `tests/training.rs`) assert planned == reference in `cargo test`.

/// The PR-3 layer-wise inference baseline and the stacks it runs.
pub mod pr3 {
    use mtlsplit_nn::{
        BatchNorm2d, Conv2d, Flatten, GlobalAvgPool2d, HardSwish, Layer, Linear, MaxPool2d, Relu,
        Sequential,
    };
    use mtlsplit_tensor::{global_avg_pool2d, max_pool2d_infer, Conv2dSpec, StdRng, Tensor};

    // ---------------------------------------------------------------------------
    // The measured stacks: one op list, two constructions
    // ---------------------------------------------------------------------------

    /// Architecture description shared by the concrete-op and boxed-layer
    /// constructions, so both are built from the same RNG draws and carry
    /// identical weights.
    #[derive(Clone, Copy)]
    pub enum OpSpec {
        /// A convolution (dense, depthwise or pointwise, per the spec).
        Conv(Conv2dSpec),
        /// Batch normalisation over the given channel count.
        Bn(usize),
        /// ReLU.
        Relu,
        /// Hard swish.
        HardSwish,
        /// Max pooling: `(window, stride)`.
        MaxPool(usize, usize),
        /// Global average pooling.
        Gap,
        /// Flatten to `[batch, features]`.
        Flatten,
    }

    /// The MobileNet-style edge stack (stem + three depthwise-separable blocks),
    /// mirroring the `MobileStyle` backbone at 32×32 — the paper's
    /// edge-relevant regime.
    pub fn mobile_spec() -> Vec<OpSpec> {
        let sep = |in_c: usize, out_c: usize, stride: usize| {
            vec![
                OpSpec::Conv(
                    Conv2dSpec::new(in_c, in_c, 3)
                        .with_stride(stride)
                        .with_padding(1)
                        .with_groups(in_c),
                ),
                OpSpec::Bn(in_c),
                OpSpec::HardSwish,
                OpSpec::Conv(Conv2dSpec::new(in_c, out_c, 1)),
                OpSpec::Bn(out_c),
                OpSpec::HardSwish,
            ]
        };
        let mut ops = vec![
            OpSpec::Conv(Conv2dSpec::new(3, 8, 3).with_stride(2).with_padding(1)),
            OpSpec::Bn(8),
            OpSpec::HardSwish,
        ];
        ops.extend(sep(8, 16, 1));
        ops.extend(sep(16, 24, 2));
        ops.extend(sep(24, 32, 1));
        ops.push(OpSpec::Gap);
        ops.push(OpSpec::Flatten);
        ops
    }

    /// The VGG-style edge stack: plain 3×3 convolution pairs with ReLU and max
    /// pooling, mirroring the `VggStyle` backbone at 32×32.
    pub fn vgg_spec() -> Vec<OpSpec> {
        let block = |in_c: usize, out_c: usize| {
            vec![
                OpSpec::Conv(Conv2dSpec::new(in_c, out_c, 3).with_padding(1)),
                OpSpec::Relu,
                OpSpec::Conv(Conv2dSpec::new(out_c, out_c, 3).with_padding(1)),
                OpSpec::Relu,
                OpSpec::MaxPool(2, 2),
            ]
        };
        let mut ops = block(3, 16);
        ops.extend(block(16, 32));
        ops.extend(block(32, 64));
        ops.push(OpSpec::Gap);
        ops.push(OpSpec::Flatten);
        ops
    }

    /// A concrete, introspectable op for the PR-3 reproduction.
    pub enum ConcreteOp {
        /// A convolution layer (its spec and parameters are read directly).
        Conv(Conv2d),
        /// A batch-norm layer (running statistics and affine parameters).
        Bn(BatchNorm2d),
        /// ReLU.
        Relu,
        /// Hard swish.
        HardSwish,
        /// Max pooling: `(window, stride)`.
        MaxPool(usize, usize),
        /// Global average pooling.
        Gap,
        /// Flatten to `[batch, features]`.
        Flatten,
    }

    /// The stack as concrete ops (`seed` draws the weights).
    pub fn build_concrete(spec: &[OpSpec], seed: u64) -> Vec<ConcreteOp> {
        let mut rng = StdRng::seed_from(seed);
        spec.iter()
            .map(|op| match *op {
                OpSpec::Conv(s) => ConcreteOp::Conv(Conv2d::with_spec(s, &mut rng)),
                OpSpec::Bn(c) => ConcreteOp::Bn(BatchNorm2d::new(c)),
                OpSpec::Relu => ConcreteOp::Relu,
                OpSpec::HardSwish => ConcreteOp::HardSwish,
                OpSpec::MaxPool(w, s) => ConcreteOp::MaxPool(w, s),
                OpSpec::Gap => ConcreteOp::Gap,
                OpSpec::Flatten => ConcreteOp::Flatten,
            })
            .collect()
    }

    /// The same stack as boxed layers (identical seed → identical weights),
    /// driven by `Sequential` on the planned path.
    pub fn build_sequential(spec: &[OpSpec], seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from(seed);
        let mut net = Sequential::new();
        for op in spec {
            match *op {
                OpSpec::Conv(s) => net.push_boxed(Box::new(Conv2d::with_spec(s, &mut rng))),
                OpSpec::Bn(c) => net.push_boxed(Box::new(BatchNorm2d::new(c))),
                OpSpec::Relu => net.push_boxed(Box::new(Relu::new())),
                OpSpec::HardSwish => net.push_boxed(Box::new(HardSwish::new())),
                OpSpec::MaxPool(w, s) => net.push_boxed(Box::new(MaxPool2d::new(w, s))),
                OpSpec::Gap => net.push_boxed(Box::new(GlobalAvgPool2d::new())),
                OpSpec::Flatten => net.push_boxed(Box::new(Flatten::new())),
            }
        }
        net
    }

    // ---------------------------------------------------------------------------
    // PR-3's packed blocked GEMM, reproduced verbatim (single-threaded path)
    // ---------------------------------------------------------------------------

    /// PR-3's `sgemm`, reproduced verbatim so the layer-wise baseline pays
    /// exactly the kernel costs it paid then — in particular, `m == 1` products
    /// (depthwise convolution units, batch-1 linear layers) still pack panels
    /// and idle three of the four register-tile rows, which the GEMV path
    /// has since eliminated. Only the single-threaded path is carried (the
    /// bench pins `Parallelism::single()`); the threaded split changes no
    /// chains. Accumulation uses the crate's `fused_mul_add`, so results are
    /// bit-identical to the production kernels (asserted before timing).
    mod pr3_gemm {
        use mtlsplit_tensor::{fused_mul_add, MR, NR};

        const MC: usize = 128;
        const KC: usize = 256;
        const NC: usize = 512;

        #[allow(clippy::too_many_arguments)]
        pub(super) fn sgemm(
            trans_a: bool,
            trans_b: bool,
            m: usize,
            n: usize,
            k: usize,
            alpha: f32,
            a: &[f32],
            b: &[f32],
            beta: f32,
            c: &mut [f32],
        ) {
            assert_eq!(a.len(), m * k, "sgemm: A buffer does not match m x k");
            assert_eq!(b.len(), k * n, "sgemm: B buffer does not match k x n");
            assert_eq!(c.len(), m * n, "sgemm: C buffer does not match m x n");
            if m == 0 || n == 0 {
                return;
            }
            if k == 0 || alpha == 0.0 {
                scale_c(c, beta);
                return;
            }
            gemm_rows(0, m, trans_a, trans_b, m, n, k, alpha, a, b, beta, c, None);
        }

        fn scale_c(c: &mut [f32], beta: f32) {
            if beta == 0.0 {
                c.fill(0.0);
            } else if beta != 1.0 {
                for x in c.iter_mut() {
                    *x *= beta;
                }
            }
        }

        /// Serial blocked GEMM over the row range `[row_start, row_end)` of `C`.
        ///
        /// `c_chunk` holds exactly those rows (`(row_end - row_start) * n` values);
        /// `a` and `b` are the full operands. When `prepacked_b` is given it must
        /// hold every `(jc, pc)` block of packed `B` in iteration order (the
        /// threaded path shares one such buffer across workers); otherwise blocks
        /// are packed on the fly into thread-local scratch. This is the unit of
        /// work one thread executes — the blocking below never depends on which
        /// rows the range covers beyond their packing, so the accumulation chain
        /// per element is partition-independent.
        #[allow(clippy::too_many_arguments)]
        fn gemm_rows(
            row_start: usize,
            row_end: usize,
            trans_a: bool,
            trans_b: bool,
            m: usize,
            n: usize,
            k: usize,
            alpha: f32,
            a: &[f32],
            b: &[f32],
            beta: f32,
            c_chunk: &mut [f32],
            prepacked_b: Option<&[f32]>,
        ) {
            // Reuse this thread's packing scratch across calls: the packing loops
            // overwrite every slot they expose (including the zero padding), so no
            // per-call zeroing is needed and the steady-state hot loop allocates
            // nothing.
            thread_local! {
                static SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
                    const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
            }
            SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                let (buffer_b, buffer_a) = &mut *scratch;
                let b_len = if prepacked_b.is_some() {
                    0
                } else {
                    KC.min(k) * NC.min(n).next_multiple_of(NR)
                };
                let a_len = MC.min(row_end - row_start).next_multiple_of(MR) * KC.min(k);
                if buffer_b.len() < b_len {
                    buffer_b.resize(b_len, 0.0);
                }
                if buffer_a.len() < a_len {
                    buffer_a.resize(a_len, 0.0);
                }
                gemm_blocks(
                    row_start,
                    row_end,
                    trans_a,
                    trans_b,
                    m,
                    n,
                    k,
                    alpha,
                    a,
                    b,
                    beta,
                    c_chunk,
                    prepacked_b,
                    &mut buffer_b[..b_len],
                    &mut buffer_a[..a_len],
                );
            });
        }

        /// The blocked loop nest of [`gemm_rows`], operating on caller-provided
        /// packing scratch (or a shared pre-packed `B`).
        #[allow(clippy::too_many_arguments)]
        fn gemm_blocks(
            row_start: usize,
            row_end: usize,
            trans_a: bool,
            trans_b: bool,
            m: usize,
            n: usize,
            k: usize,
            alpha: f32,
            a: &[f32],
            b: &[f32],
            beta: f32,
            c_chunk: &mut [f32],
            prepacked_b: Option<&[f32]>,
            packed_b_scratch: &mut [f32],
            packed_a: &mut [f32],
        ) {
            let mut shared_offset = 0;
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                let nc_pad = nc.next_multiple_of(NR);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let panel_b: &[f32] = match prepacked_b {
                        Some(shared) => {
                            let block = &shared[shared_offset..shared_offset + kc * nc_pad];
                            shared_offset += kc * nc_pad;
                            block
                        }
                        None => {
                            pack_b(packed_b_scratch, b, trans_b, k, n, pc, jc, kc, nc);
                            &packed_b_scratch[..kc * nc_pad]
                        }
                    };
                    let first_k_block = pc == 0;
                    let mut ic = row_start;
                    while ic < row_end {
                        let mc = MC.min(row_end - ic);
                        pack_a(packed_a, a, trans_a, m, k, ic, pc, mc, kc, alpha);
                        macro_kernel(
                            packed_a,
                            panel_b,
                            mc,
                            nc,
                            kc,
                            c_chunk,
                            (ic - row_start) * n + jc,
                            n,
                            beta,
                            first_k_block,
                        );
                        ic += mc;
                    }
                }
            }
        }

        /// Packs the `kc x nc` block of `op(B)` at `(pc, jc)` into NR-wide column
        /// panels, each laid out k-major: panel `jp` holds `kc` rows of `NR`
        /// consecutive values `op(B)[pc + p][jc + jp .. jc + jp + NR]`, zero-padded
        /// past `nc`.
        #[allow(clippy::too_many_arguments)]
        fn pack_b(
            packed: &mut [f32],
            b: &[f32],
            trans_b: bool,
            k: usize,
            n: usize,
            pc: usize,
            jc: usize,
            kc: usize,
            nc: usize,
        ) {
            let mut offset = 0;
            for jp in (0..nc).step_by(NR) {
                let width = NR.min(nc - jp);
                for p in 0..kc {
                    let dst = &mut packed[offset + p * NR..offset + p * NR + NR];
                    if trans_b {
                        // Stored B is n x k; op(B)[p][j] = b[j * k + p].
                        for (j, slot) in dst.iter_mut().take(width).enumerate() {
                            *slot = b[(jc + jp + j) * k + pc + p];
                        }
                    } else {
                        dst[..width].copy_from_slice(&b[(pc + p) * n + jc + jp..][..width]);
                    }
                    dst[width..].fill(0.0);
                }
                offset += kc * NR;
            }
        }

        /// Packs the `mc x kc` block of `op(A)` at `(ic, pc)` into MR-tall row
        /// panels laid out k-major (`panel[p * MR + i] = alpha * op(A)[ic + ip + i]
        /// [pc + p]`), zero-padded past `mc`. Folding `alpha` in here keeps the
        /// micro-kernel multiply-add only — and is exact for `alpha == 1`.
        #[allow(clippy::too_many_arguments)]
        fn pack_a(
            packed: &mut [f32],
            a: &[f32],
            trans_a: bool,
            m: usize,
            k: usize,
            ic: usize,
            pc: usize,
            mc: usize,
            kc: usize,
            alpha: f32,
        ) {
            let mut offset = 0;
            for ip in (0..mc).step_by(MR) {
                let height = MR.min(mc - ip);
                if !trans_a && height == MR {
                    // Common full-panel case: interleave MR contiguous source rows.
                    // The fixed-stride store group vectorises, unlike the generic
                    // scalar loop below.
                    let rows: [&[f32]; MR] =
                        std::array::from_fn(|i| &a[(ic + ip + i) * k + pc..][..kc]);
                    let dst = &mut packed[offset..offset + kc * MR];
                    for p in 0..kc {
                        for (i, row) in rows.iter().enumerate() {
                            dst[p * MR + i] = alpha * row[p];
                        }
                    }
                } else {
                    for p in 0..kc {
                        let dst = &mut packed[offset + p * MR..offset + p * MR + MR];
                        for (i, slot) in dst.iter_mut().take(height).enumerate() {
                            let value = if trans_a {
                                // Stored A is k x m; op(A)[i][p] = a[p * m + i].
                                a[(pc + p) * m + ic + ip + i]
                            } else {
                                a[(ic + ip + i) * k + pc + p]
                            };
                            *slot = alpha * value;
                        }
                        dst[height..].fill(0.0);
                    }
                }
                offset += kc * MR;
            }
        }

        /// Drives the micro-kernel over every `MR x NR` tile of an `mc x nc` block
        /// of `C` starting at `c_offset` (leading dimension `ldc`).
        #[allow(clippy::too_many_arguments)]
        fn macro_kernel(
            packed_a: &[f32],
            packed_b: &[f32],
            mc: usize,
            nc: usize,
            kc: usize,
            c: &mut [f32],
            c_offset: usize,
            ldc: usize,
            beta: f32,
            first_k_block: bool,
        ) {
            for jr in (0..nc).step_by(NR) {
                let width = NR.min(nc - jr);
                let panel_b = &packed_b[(jr / NR) * kc * NR..][..kc * NR];
                for ir in (0..mc).step_by(MR) {
                    let height = MR.min(mc - ir);
                    let panel_a = &packed_a[(ir / MR) * kc * MR..][..kc * MR];
                    micro_kernel(
                        panel_a,
                        panel_b,
                        kc,
                        c,
                        c_offset + ir * ldc + jr,
                        ldc,
                        height,
                        width,
                        beta,
                        first_k_block,
                    );
                }
            }
        }

        /// Columns held in each of the micro-kernel's three accumulator thirds.
        const NRH: usize = NR / 3;

        /// The register-tiled core: accumulates one `MR x NR` tile of `C` over a
        /// whole `kc` slice in local accumulators, then writes the valid
        /// `height x width` region back. Initialising the accumulators from `C`
        /// (scaled by `beta` only on the first `K` block) is what keeps the
        /// per-element accumulation chain identical to the naive triple loop.
        ///
        /// The tile is held as three `MR x NRH` column-third arrays rather than one
        /// `MR x NR` array: LLVM's scalar-replacement pass only promotes small
        /// aggregates to registers, and splitting the tile keeps each third under
        /// that limit so the whole accumulator stays in SIMD registers across the
        /// `kc` loop (one `MR x NR` array would spill to the stack).
        ///
        /// `manual_memcpy` is allowed deliberately: writing the spill/reload loops
        /// as `copy_from_slice` takes references to the accumulator arrays, which
        /// blocks their scalar replacement — the index loops keep them in
        /// registers.
        #[allow(clippy::too_many_arguments, clippy::manual_memcpy)]
        #[inline]
        fn micro_kernel(
            panel_a: &[f32],
            panel_b: &[f32],
            kc: usize,
            c: &mut [f32],
            c_offset: usize,
            ldc: usize,
            height: usize,
            width: usize,
            beta: f32,
            first_k_block: bool,
        ) {
            let mut acc_l = [[0.0f32; NRH]; MR];
            let mut acc_m = [[0.0f32; NRH]; MR];
            let mut acc_r = [[0.0f32; NRH]; MR];
            let width_l = width.min(NRH);
            let width_m = width.saturating_sub(NRH).min(NRH);
            let width_r = width.saturating_sub(2 * NRH);
            if first_k_block {
                if beta != 0.0 {
                    for i in 0..height {
                        let c_row = &c[c_offset + i * ldc..][..width];
                        for j in 0..width_l {
                            acc_l[i][j] = beta * c_row[j];
                        }
                        for j in 0..width_m {
                            acc_m[i][j] = beta * c_row[NRH + j];
                        }
                        for j in 0..width_r {
                            acc_r[i][j] = beta * c_row[2 * NRH + j];
                        }
                    }
                }
            } else {
                for i in 0..height {
                    let c_row = &c[c_offset + i * ldc..][..width];
                    for j in 0..width_l {
                        acc_l[i][j] = c_row[j];
                    }
                    for j in 0..width_m {
                        acc_m[i][j] = c_row[NRH + j];
                    }
                    for j in 0..width_r {
                        acc_r[i][j] = c_row[2 * NRH + j];
                    }
                }
            }
            for p in 0..kc {
                let b_l: &[f32; NRH] = panel_b[p * NR..]
                    .first_chunk()
                    .expect("packed B panel is kc * NR long");
                let b_m: &[f32; NRH] = panel_b[p * NR + NRH..]
                    .first_chunk()
                    .expect("packed B panel is kc * NR long");
                let b_r: &[f32; NRH] = panel_b[p * NR + 2 * NRH..]
                    .first_chunk()
                    .expect("packed B panel is kc * NR long");
                let a_col: &[f32; MR] = panel_a[p * MR..]
                    .first_chunk()
                    .expect("packed A panel is kc * MR long");
                for i in 0..MR {
                    let a_value = a_col[i];
                    let left = &mut acc_l[i];
                    for j in 0..NRH {
                        left[j] = fused_mul_add(a_value, b_l[j], left[j]);
                    }
                    let middle = &mut acc_m[i];
                    for j in 0..NRH {
                        middle[j] = fused_mul_add(a_value, b_m[j], middle[j]);
                    }
                    let right = &mut acc_r[i];
                    for j in 0..NRH {
                        right[j] = fused_mul_add(a_value, b_r[j], right[j]);
                    }
                }
            }
            for i in 0..height {
                let c_row = &mut c[c_offset + i * ldc..][..width];
                for j in 0..width_l {
                    c_row[j] = acc_l[i][j];
                }
                for j in 0..width_m {
                    c_row[NRH + j] = acc_m[i][j];
                }
                for j in 0..width_r {
                    c_row[2 * NRH + j] = acc_r[i][j];
                }
            }
        }
    }

    // ---------------------------------------------------------------------------
    // The PR-3 layer-wise baseline, reproduced verbatim
    // ---------------------------------------------------------------------------

    /// PR-3's `im2col_group`: unfolds one `(batch, group)` unit channel-major
    /// into a `[cin_g * k * k, out_plane]` column matrix.
    #[allow(clippy::too_many_arguments)]
    fn pr3_im2col_group(
        dst: &mut [f32],
        src: &[f32],
        spec: &Conv2dSpec,
        (height, width): (usize, usize),
        (out_h, out_w): (usize, usize),
        batch_index: usize,
        channel_start: usize,
    ) {
        let cin_g = spec.in_channels / spec.groups;
        let k = spec.kernel;
        let pad = spec.padding as isize;
        let out_plane = out_h * out_w;
        for ic_local in 0..cin_g {
            let in_base =
                (batch_index * spec.in_channels + channel_start + ic_local) * height * width;
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ic_local * k + ky) * k + kx;
                    let out_row = &mut dst[row * out_plane..][..out_plane];
                    for oy in 0..out_h {
                        let in_y = (oy * spec.stride + ky) as isize - pad;
                        let dst_row = &mut out_row[oy * out_w..(oy + 1) * out_w];
                        if in_y < 0 || in_y >= height as isize {
                            dst_row.fill(0.0);
                            continue;
                        }
                        let src_row = &src[in_base + in_y as usize * width..][..width];
                        for (ox, slot) in dst_row.iter_mut().enumerate() {
                            let in_x = (ox * spec.stride + kx) as isize - pad;
                            *slot = if in_x >= 0 && in_x < width as isize {
                                src_row[in_x as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    /// PR-3's `conv2d` forward: fresh zeroed output, bias prefill accumulated
    /// through the GEMM's `beta == 1` path, and a fresh im2col scratch buffer
    /// per `(batch, group)` unit — every convolution, dense and depthwise
    /// alike, pays the lowering.
    fn pr3_conv2d(conv: &Conv2d, input: &Tensor) -> Tensor {
        let spec = *conv.spec();
        let params = conv.parameters();
        let (weight, bias) = (params[0].value(), params[1].value());
        let dims = input.dims();
        let (batch, height, width) = (dims[0], dims[2], dims[3]);
        let (out_h, out_w) = spec.output_size(height, width).expect("bench spec fits");
        let (cin_g, cout_g) = (
            spec.in_channels / spec.groups,
            spec.out_channels / spec.groups,
        );
        let ckk = cin_g * spec.kernel * spec.kernel;
        let out_plane = out_h * out_w;
        let mut out = vec![0.0f32; batch * spec.out_channels * out_plane];
        let bias_values = bias.as_slice();
        for (channel_plane, plane) in out.chunks_mut(out_plane).enumerate() {
            plane.fill(bias_values[channel_plane % spec.out_channels]);
        }
        let src = input.as_slice();
        let w = weight.as_slice();
        let unit_len = cout_g * out_plane;
        for (unit_index, unit) in out.chunks_mut(unit_len).enumerate() {
            let (b, group) = (unit_index / spec.groups, unit_index % spec.groups);
            let mut cols = vec![0.0f32; ckk * out_plane];
            pr3_im2col_group(
                &mut cols,
                src,
                &spec,
                (height, width),
                (out_h, out_w),
                b,
                group * cin_g,
            );
            let w_group = &w[group * cout_g * ckk..][..cout_g * ckk];
            pr3_gemm::sgemm(
                false, false, cout_g, out_plane, ckk, 1.0, w_group, &cols, 1.0, unit,
            );
        }
        Tensor::from_vec(out, &[batch, spec.out_channels, out_h, out_w]).expect("pr3 conv shape")
    }

    /// PR-3's batch-norm inference pass: a separate full-tensor pass through a
    /// fresh output buffer. (`epsilon` is `BatchNorm2d`'s fixed 1e-5.)
    fn pr3_batch_norm(bn: &BatchNorm2d, input: &Tensor) -> Tensor {
        let params = bn.parameters();
        let (gamma, beta) = (params[0].value().as_slice(), params[1].value().as_slice());
        let dims = input.dims();
        let (batch, channels) = (dims[0], dims[1]);
        let plane = dims[2] * dims[3];
        let src = input.as_slice();
        let mut out = vec![0.0f32; src.len()];
        for c in 0..channels {
            let mean = bn.running_mean()[c];
            let inv = 1.0 / (bn.running_var()[c] + 1e-5).sqrt();
            let (g, b_shift) = (gamma[c], beta[c]);
            for b in 0..batch {
                let base = (b * channels + c) * plane;
                for i in 0..plane {
                    out[base + i] = g * (src[base + i] - mean) * inv + b_shift;
                }
            }
        }
        Tensor::from_vec(out, dims).expect("pr3 bn shape")
    }

    fn pr3_hard_swish(x: f32) -> f32 {
        x * ((x + 3.0) / 6.0).clamp(0.0, 1.0)
    }

    /// One full PR-3 layer-wise forward pass over a concrete op stack.
    pub fn pr3_forward(ops: &[ConcreteOp], input: &Tensor) -> Tensor {
        let mut current = input.clone();
        for op in ops {
            current = match op {
                ConcreteOp::Conv(conv) => pr3_conv2d(conv, &current),
                ConcreteOp::Bn(bn) => pr3_batch_norm(bn, &current),
                ConcreteOp::Relu => current.map(|x| x.max(0.0)),
                ConcreteOp::HardSwish => current.map(pr3_hard_swish),
                ConcreteOp::MaxPool(w, s) => max_pool2d_infer(&current, *w, *s).expect("pr3 pool"),
                ConcreteOp::Gap => global_avg_pool2d(&current).expect("pr3 gap"),
                ConcreteOp::Flatten => current.flatten_batch().expect("pr3 flatten"),
            };
        }
        current
    }

    /// PR-3's `Linear::infer`: bias rows prefilled, `beta == 1` GEMM.
    pub fn pr3_linear(layer: &Linear, input: &Tensor) -> Tensor {
        let params = layer.parameters();
        let (weight, bias) = (params[0].value(), params[1].value());
        let batch = input.dims()[0];
        let out_features = layer.out_features();
        let mut out = Vec::with_capacity(batch * out_features);
        for _ in 0..batch {
            out.extend_from_slice(bias.as_slice());
        }
        pr3_gemm::sgemm(
            false,
            true,
            batch,
            out_features,
            layer.in_features(),
            1.0,
            input.as_slice(),
            weight.as_slice(),
            1.0,
            &mut out,
        );
        Tensor::from_vec(out, &[batch, out_features]).expect("pr3 linear shape")
    }

    // ---------------------------------------------------------------------------
    // Serving heads (the worker compute path)
    // ---------------------------------------------------------------------------

    /// The shared-feature width the serving heads read.
    pub const FEATURES: usize = 128;

    /// Two MLP task heads reading `in_features` shared features — the
    /// serving-bench shapes.
    pub fn head_shapes(in_features: usize) -> [(usize, usize, usize); 2] {
        [(in_features, 512, 8), (in_features, 256, 4)]
    }

    /// The serving heads as concrete `(Linear, Linear)` pairs.
    pub fn build_concrete_heads(in_features: usize, seed: u64) -> Vec<(Linear, Linear)> {
        let mut rng = StdRng::seed_from(seed);
        head_shapes(in_features)
            .iter()
            .map(|&(inp, hidden, classes)| {
                (
                    Linear::new(inp, hidden, &mut rng),
                    Linear::new(hidden, classes, &mut rng),
                )
            })
            .collect()
    }

    /// The same heads as boxed `Linear → ReLU → Linear` stacks (identical
    /// seed → identical weights).
    pub fn build_boxed_heads(in_features: usize, seed: u64) -> Vec<Box<dyn Layer>> {
        let mut rng = StdRng::seed_from(seed);
        head_shapes(in_features)
            .iter()
            .map(|&(inp, hidden, classes)| {
                Box::new(
                    Sequential::new()
                        .push(Linear::new(inp, hidden, &mut rng))
                        .push(Relu::new())
                        .push(Linear::new(hidden, classes, &mut rng)),
                ) as Box<dyn Layer>
            })
            .collect()
    }

    /// PR-3's head pass: `Linear`, a separate ReLU pass, `Linear`.
    pub fn pr3_head(head: &(Linear, Linear), z: &Tensor) -> Tensor {
        let hidden = pr3_linear(&head.0, z).map(|x| x.max(0.0));
        pr3_linear(&head.1, &hidden)
    }
}

// ---------------------------------------------------------------------------
// The seed (PR-4) training step, reproduced verbatim
// ---------------------------------------------------------------------------

/// The previous training step, reproduced the way [`pr3`] reproduces the
/// PR-3 serving path: every layer allocates fresh output,
/// cache and gradient tensors; the convolution backward is the generic
/// lowered formulation for every case (grad-cols GEMM + col2im fold, and a
/// fresh im2col per `(batch, group)` unit feeding the weight-gradient GEMMs
/// — no pointwise or depthwise fast paths, no forward column cache); AdamW
/// updates through allocating `scale`/`mul`/`zip` tensors. Weights are
/// copied from an identically-seeded model, and a fidelity gate asserts the
/// vendored step trains **bit-identically** to the in-tree path (asserted
/// by the training bench before anything is timed, and by the workspace
/// tests).
pub mod seed {
    use mtlsplit_core::MtlSplitModel;
    use mtlsplit_nn::CrossEntropyLoss;
    use mtlsplit_tensor::{global_avg_pool2d, sgemm, Conv2dSpec, Parallelism, Tensor};
    use mtlsplit_tensor::{ActivationGrad, EpilogueActivation};

    /// Seed `im2col_group`: unfolds one `(batch, group)` unit channel-major
    /// into a `[cin_g * k * k, out_plane]` column matrix.
    #[allow(clippy::too_many_arguments)]
    fn im2col_group(
        dst: &mut [f32],
        src: &[f32],
        spec: &Conv2dSpec,
        (height, width): (usize, usize),
        (out_h, out_w): (usize, usize),
        batch_index: usize,
        channel_start: usize,
    ) {
        let cin_g = spec.in_channels / spec.groups;
        let k = spec.kernel;
        let pad = spec.padding as isize;
        let out_plane = out_h * out_w;
        for ic_local in 0..cin_g {
            let in_base =
                (batch_index * spec.in_channels + channel_start + ic_local) * height * width;
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ic_local * k + ky) * k + kx;
                    let out_row = &mut dst[row * out_plane..][..out_plane];
                    for oy in 0..out_h {
                        let in_y = (oy * spec.stride + ky) as isize - pad;
                        let dst_row = &mut out_row[oy * out_w..(oy + 1) * out_w];
                        if in_y < 0 || in_y >= height as isize {
                            dst_row.fill(0.0);
                            continue;
                        }
                        let src_row = &src[in_base + in_y as usize * width..][..width];
                        for (ox, slot) in dst_row.iter_mut().enumerate() {
                            let in_x = (ox * spec.stride + kx) as isize - pad;
                            *slot = if in_x >= 0 && in_x < width as isize {
                                src_row[in_x as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    /// Seed `col2im_group`: the adjoint fold of [`im2col_group`].
    fn col2im_group(
        cols: &[f32],
        unit: &mut [f32],
        spec: &Conv2dSpec,
        (height, width): (usize, usize),
        (out_h, out_w): (usize, usize),
    ) {
        let cin_g = spec.in_channels / spec.groups;
        let k = spec.kernel;
        let pad = spec.padding as isize;
        let out_plane = out_h * out_w;
        for ic_local in 0..cin_g {
            let unit_base = ic_local * height * width;
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ic_local * k + ky) * k + kx;
                    let src_row = &cols[row * out_plane..][..out_plane];
                    for oy in 0..out_h {
                        let in_y = (oy * spec.stride + ky) as isize - pad;
                        if in_y < 0 || in_y >= height as isize {
                            continue;
                        }
                        let dst_row = &mut unit[unit_base + in_y as usize * width..][..width];
                        for (ox, &value) in src_row[oy * out_w..(oy + 1) * out_w].iter().enumerate()
                        {
                            let in_x = (ox * spec.stride + kx) as isize - pad;
                            if in_x >= 0 && in_x < width as isize {
                                dst_row[in_x as usize] += value;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The seed's generic lowered convolution backward: fresh buffers, one
    /// grad-cols GEMM + col2im per unit, one fresh im2col per `(batch,
    /// group)` unit in the weight-gradient loop — for every convolution
    /// kind, pointwise and depthwise included.
    fn conv2d_backward(
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: &Conv2dSpec,
    ) -> (Tensor, Tensor, Tensor) {
        let dims = input.dims();
        let (batch, height, width) = (dims[0], dims[2], dims[3]);
        let (out_h, out_w) = spec.output_size(height, width).expect("seed conv fits");
        let cin_g = spec.in_channels / spec.groups;
        let cout_g = spec.out_channels / spec.groups;
        let ckk = cin_g * spec.kernel * spec.kernel;
        let out_plane = out_h * out_w;
        let src = input.as_slice();
        let w = weight.as_slice();
        let go = grad_output.as_slice();
        let par = Parallelism::single();

        let mut grad_bias = vec![0.0f32; spec.out_channels];
        for (oc, slot) in grad_bias.iter_mut().enumerate() {
            for b in 0..batch {
                let plane = &go[(b * spec.out_channels + oc) * out_plane..][..out_plane];
                for &value in plane {
                    *slot += value;
                }
            }
        }

        let mut grad_input = vec![0.0f32; src.len()];
        let unit_len = cin_g * height * width;
        for (unit_index, unit) in grad_input.chunks_mut(unit_len).enumerate() {
            let (b, group) = (unit_index / spec.groups, unit_index % spec.groups);
            let w_group = &w[group * cout_g * ckk..][..cout_g * ckk];
            let go_group =
                &go[(b * spec.out_channels + group * cout_g) * out_plane..][..cout_g * out_plane];
            let mut grad_cols = vec![0.0f32; ckk * out_plane];
            sgemm(
                true,
                false,
                ckk,
                out_plane,
                cout_g,
                1.0,
                w_group,
                go_group,
                0.0,
                &mut grad_cols,
                par,
            );
            col2im_group(&grad_cols, unit, spec, (height, width), (out_h, out_w));
        }

        let mut grad_weight = vec![0.0f32; w.len()];
        for (group, unit) in grad_weight.chunks_mut(cout_g * ckk).enumerate() {
            let mut cols = vec![0.0f32; ckk * out_plane];
            for b in 0..batch {
                im2col_group(
                    &mut cols,
                    src,
                    spec,
                    (height, width),
                    (out_h, out_w),
                    b,
                    group * cin_g,
                );
                let go_group = &go[(b * spec.out_channels + group * cout_g) * out_plane..]
                    [..cout_g * out_plane];
                let beta = if b == 0 { 0.0 } else { 1.0 };
                sgemm(
                    false, true, cout_g, ckk, out_plane, 1.0, go_group, &cols, beta, unit, par,
                );
            }
        }

        (
            Tensor::from_vec(grad_input, input.dims()).expect("seed grad_input"),
            Tensor::from_vec(grad_weight, weight.dims()).expect("seed grad_weight"),
            Tensor::from_vec(grad_bias, &[spec.out_channels]).expect("seed grad_bias"),
        )
    }

    pub(super) struct BnCache {
        normalized: Tensor,
        std_inv: Vec<f32>,
        dims: Vec<usize>,
    }

    /// One layer of the seed network: parameters, accumulated gradients and
    /// the training caches, exactly as the seed layers kept them.
    pub(super) enum Op {
        Conv {
            spec: Conv2dSpec,
            weight: Tensor,
            bias: Tensor,
            grad_weight: Tensor,
            grad_bias: Tensor,
            cached: Option<Tensor>,
        },
        Bn {
            gamma: Tensor,
            beta: Tensor,
            grad_gamma: Tensor,
            grad_beta: Tensor,
            running_mean: Vec<f32>,
            running_var: Vec<f32>,
            cache: Option<BnCache>,
        },
        HardSwish {
            cached: Option<Tensor>,
        },
        Relu {
            cached: Option<Tensor>,
        },
        Gap {
            dims: Option<Vec<usize>>,
        },
        Flatten {
            dims: Option<Vec<usize>>,
        },
        Linear {
            in_features: usize,
            out_features: usize,
            weight: Tensor,
            bias: Tensor,
            grad_weight: Tensor,
            grad_bias: Tensor,
            cached: Option<Tensor>,
        },
    }

    impl Op {
        fn forward(&mut self, input: &Tensor) -> Tensor {
            match self {
                Op::Conv {
                    spec,
                    weight,
                    bias,
                    cached,
                    ..
                } => {
                    *cached = Some(input.clone());
                    mtlsplit_tensor::conv2d(input, weight, Some(bias), spec).expect("seed conv")
                }
                Op::Bn {
                    gamma,
                    beta,
                    running_mean,
                    running_var,
                    cache,
                    ..
                } => {
                    // The seed's train-mode batch norm: batch statistics,
                    // running-average update, fresh buffers.
                    let dims = input.dims().to_vec();
                    let (batch, channels, h, w) = (dims[0], dims[1], dims[2], dims[3]);
                    let plane = h * w;
                    let count = (batch * plane).max(1) as f32;
                    let momentum = 0.1f32;
                    let epsilon = 1e-5f32;
                    let src = input.as_slice();
                    let mut out = vec![0.0f32; src.len()];
                    let mut normalized = vec![0.0f32; src.len()];
                    let mut std_inv = vec![0.0f32; channels];
                    for (c, std_inv_slot) in std_inv.iter_mut().enumerate() {
                        let mut mean = 0.0f32;
                        for b in 0..batch {
                            let base = (b * channels + c) * plane;
                            mean += src[base..base + plane].iter().sum::<f32>();
                        }
                        mean /= count;
                        let mut var = 0.0f32;
                        for b in 0..batch {
                            let base = (b * channels + c) * plane;
                            var += src[base..base + plane]
                                .iter()
                                .map(|&x| (x - mean).powi(2))
                                .sum::<f32>();
                        }
                        var /= count;
                        running_mean[c] = (1.0 - momentum) * running_mean[c] + momentum * mean;
                        running_var[c] = (1.0 - momentum) * running_var[c] + momentum * var;
                        let inv = 1.0 / (var + epsilon).sqrt();
                        *std_inv_slot = inv;
                        let g = gamma.as_slice()[c];
                        let b_shift = beta.as_slice()[c];
                        for b in 0..batch {
                            let base = (b * channels + c) * plane;
                            for i in 0..plane {
                                let n = (src[base + i] - mean) * inv;
                                normalized[base + i] = n;
                                out[base + i] = g * n + b_shift;
                            }
                        }
                    }
                    *cache = Some(BnCache {
                        normalized: Tensor::from_vec(normalized, &dims).expect("seed bn"),
                        std_inv,
                        dims: dims.clone(),
                    });
                    Tensor::from_vec(out, &dims).expect("seed bn out")
                }
                Op::HardSwish { cached } => {
                    *cached = Some(input.clone());
                    input.map(|x| EpilogueActivation::HardSwish.apply(x))
                }
                Op::Relu { cached } => {
                    *cached = Some(input.clone());
                    input.map(|x| EpilogueActivation::Relu.apply(x))
                }
                Op::Gap { dims } => {
                    *dims = Some(input.dims().to_vec());
                    global_avg_pool2d(input).expect("seed gap")
                }
                Op::Flatten { dims } => {
                    *dims = Some(input.dims().to_vec());
                    input.flatten_batch().expect("seed flatten")
                }
                Op::Linear {
                    in_features,
                    out_features,
                    weight,
                    bias,
                    cached,
                    ..
                } => {
                    *cached = Some(input.clone());
                    let batch = input.dims()[0];
                    let mut out = Vec::with_capacity(batch * *out_features);
                    for _ in 0..batch {
                        out.extend_from_slice(bias.as_slice());
                    }
                    sgemm(
                        false,
                        true,
                        batch,
                        *out_features,
                        *in_features,
                        1.0,
                        input.as_slice(),
                        weight.as_slice(),
                        1.0,
                        &mut out,
                        Parallelism::single(),
                    );
                    Tensor::from_vec(out, &[batch, *out_features]).expect("seed linear")
                }
            }
        }

        fn backward(&mut self, grad_output: &Tensor) -> Tensor {
            match self {
                Op::Conv {
                    spec,
                    weight,
                    grad_weight,
                    grad_bias,
                    cached,
                    ..
                } => {
                    let input = cached.as_ref().expect("seed conv cache");
                    let (gi, gw, gb) = conv2d_backward(input, weight, grad_output, spec);
                    grad_weight.add_scaled_inplace(&gw, 1.0).expect("seed gw");
                    grad_bias.add_scaled_inplace(&gb, 1.0).expect("seed gb");
                    gi
                }
                Op::Bn {
                    gamma,
                    grad_gamma,
                    grad_beta,
                    cache,
                    ..
                } => {
                    let cache = cache.as_ref().expect("seed bn cache");
                    let dims = &cache.dims;
                    let (batch, channels, h, w) = (dims[0], dims[1], dims[2], dims[3]);
                    let plane = h * w;
                    let count = (batch * plane).max(1) as f32;
                    let go = grad_output.as_slice();
                    let norm = cache.normalized.as_slice();
                    let mut grad_input = vec![0.0f32; go.len()];
                    let mut gg = vec![0.0f32; channels];
                    let mut gb = vec![0.0f32; channels];
                    for c in 0..channels {
                        let g = gamma.as_slice()[c];
                        let inv = cache.std_inv[c];
                        let mut sum_dy = 0.0f32;
                        let mut sum_dy_x = 0.0f32;
                        for b in 0..batch {
                            let base = (b * channels + c) * plane;
                            for i in 0..plane {
                                let dy = go[base + i];
                                sum_dy += dy;
                                sum_dy_x += dy * norm[base + i];
                            }
                        }
                        gg[c] = sum_dy_x;
                        gb[c] = sum_dy;
                        for b in 0..batch {
                            let base = (b * channels + c) * plane;
                            for i in 0..plane {
                                let dy = go[base + i];
                                grad_input[base + i] = g * inv / count
                                    * (count * dy - sum_dy - norm[base + i] * sum_dy_x);
                            }
                        }
                    }
                    grad_gamma
                        .add_scaled_inplace(&Tensor::from_vec(gg, &[channels]).unwrap(), 1.0)
                        .expect("seed bn gg");
                    grad_beta
                        .add_scaled_inplace(&Tensor::from_vec(gb, &[channels]).unwrap(), 1.0)
                        .expect("seed bn gb");
                    Tensor::from_vec(grad_input, dims).expect("seed bn grad")
                }
                Op::HardSwish { cached } => {
                    let input = cached.as_ref().expect("seed hs cache");
                    let local = input.map(|x| ActivationGrad::HardSwish.derivative(x));
                    grad_output.mul(&local).expect("seed hs grad")
                }
                Op::Relu { cached } => {
                    let input = cached.as_ref().expect("seed relu cache");
                    let local = input.map(|x| ActivationGrad::Relu.derivative(x));
                    grad_output.mul(&local).expect("seed relu grad")
                }
                Op::Gap { dims } => {
                    let dims = dims.as_ref().expect("seed gap cache");
                    let (batch, channels, h, w) = (dims[0], dims[1], dims[2], dims[3]);
                    let norm = 1.0 / (h * w).max(1) as f32;
                    let go = grad_output.as_slice();
                    let mut grad_input = Tensor::zeros(dims);
                    let gi = grad_input.as_mut_slice();
                    for b in 0..batch {
                        for c in 0..channels {
                            let g = go[b * channels + c] * norm;
                            let base = (b * channels + c) * h * w;
                            for v in &mut gi[base..base + h * w] {
                                *v = g;
                            }
                        }
                    }
                    grad_input
                }
                Op::Flatten { dims } => {
                    let dims = dims.as_ref().expect("seed flatten cache");
                    grad_output.reshape(dims).expect("seed flatten grad")
                }
                Op::Linear {
                    in_features,
                    out_features,
                    weight,
                    grad_weight,
                    grad_bias,
                    cached,
                    ..
                } => {
                    let input = cached.as_ref().expect("seed linear cache");
                    let batch = grad_output.dims()[0];
                    let par = Parallelism::single();
                    let mut gw = vec![0.0f32; *out_features * *in_features];
                    sgemm(
                        true,
                        false,
                        *out_features,
                        *in_features,
                        batch,
                        1.0,
                        grad_output.as_slice(),
                        input.as_slice(),
                        0.0,
                        &mut gw,
                        par,
                    );
                    let gb = grad_output.sum_axis0().expect("seed linear gb");
                    let mut gi = vec![0.0f32; batch * *in_features];
                    sgemm(
                        false,
                        false,
                        batch,
                        *in_features,
                        *out_features,
                        1.0,
                        grad_output.as_slice(),
                        weight.as_slice(),
                        0.0,
                        &mut gi,
                        par,
                    );
                    grad_weight
                        .add_scaled_inplace(
                            &Tensor::from_vec(gw, &[*out_features, *in_features]).unwrap(),
                            1.0,
                        )
                        .expect("seed linear gw");
                    grad_bias
                        .add_scaled_inplace(&gb, 1.0)
                        .expect("seed linear gb");
                    Tensor::from_vec(gi, &[batch, *in_features]).expect("seed linear grad")
                }
            }
        }

        /// `(value, grad)` pairs for the optimizer, in parameter order.
        fn params(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
            match self {
                Op::Conv {
                    weight,
                    bias,
                    grad_weight,
                    grad_bias,
                    ..
                }
                | Op::Linear {
                    weight,
                    bias,
                    grad_weight,
                    grad_bias,
                    ..
                } => vec![(weight, grad_weight), (bias, grad_bias)],
                Op::Bn {
                    gamma,
                    beta,
                    grad_gamma,
                    grad_beta,
                    ..
                } => vec![(gamma, grad_gamma), (beta, grad_beta)],
                _ => Vec::new(),
            }
        }
    }

    /// The seed's AdamW, reproduced verbatim: allocating
    /// `scale`/`mul`/`zip` tensor updates per parameter per step.
    pub(super) struct SeedAdamW {
        lr: f32,
        beta1: f32,
        beta2: f32,
        epsilon: f32,
        weight_decay: f32,
        step_count: u64,
        first_moment: Vec<Tensor>,
        second_moment: Vec<Tensor>,
    }

    impl SeedAdamW {
        pub(super) fn new(lr: f32) -> Self {
            Self {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                epsilon: 1e-8,
                weight_decay: 0.01,
                step_count: 0,
                first_moment: Vec::new(),
                second_moment: Vec::new(),
            }
        }

        fn step(&mut self, params: &mut [(&mut Tensor, &mut Tensor)]) {
            while self.first_moment.len() < params.len() {
                let dims = params[self.first_moment.len()].0.dims().to_vec();
                self.first_moment.push(Tensor::zeros(&dims));
                self.second_moment.push(Tensor::zeros(&dims));
            }
            self.step_count += 1;
            let t = self.step_count as f32;
            let bias1 = 1.0 - self.beta1.powf(t);
            let bias2 = 1.0 - self.beta2.powf(t);
            for (idx, (value, grad)) in params.iter_mut().enumerate() {
                let lr = self.lr;
                let grad: &Tensor = grad;
                let m = &mut self.first_moment[idx];
                let v = &mut self.second_moment[idx];
                let mut new_m = m.scale(self.beta1);
                new_m.add_scaled_inplace(grad, 1.0 - self.beta1).unwrap();
                let grad_sq = grad.mul(grad).unwrap();
                let mut new_v = v.scale(self.beta2);
                new_v
                    .add_scaled_inplace(&grad_sq, 1.0 - self.beta2)
                    .unwrap();
                if self.weight_decay > 0.0 {
                    let decay = value.scale(self.weight_decay * lr);
                    value.add_scaled_inplace(&decay, -1.0).unwrap();
                }
                let eps = self.epsilon;
                let update = new_m
                    .zip(&new_v, move |m_i, v_i| {
                        (m_i / bias1) / ((v_i / bias2).sqrt() + eps)
                    })
                    .unwrap();
                value.add_scaled_inplace(&update, -lr).unwrap();
                *m = new_m;
                *v = new_v;
            }
        }
    }

    /// The seed model: backbone ops plus per-head op chains, with weights
    /// copied from an identically-seeded in-tree model.
    pub struct SeedNet {
        backbone: Vec<Op>,
        heads: Vec<Vec<Op>>,
        loss: CrossEntropyLoss,
        opt: SeedAdamW,
    }

    impl SeedNet {
        /// Builds the MobileStyle-at-`image`² architecture and copies the
        /// parameter values (in stable order) out of `model`.
        pub fn from_model(model: &mut MtlSplitModel, image: usize, lr: f32) -> Self {
            let values: Vec<Tensor> = model
                .parameters_mut()
                .iter()
                .map(|p| p.value().clone())
                .collect();
            let mut cursor = 0usize;
            let mut next = |expected_dims: &[usize]| -> Tensor {
                let value = values[cursor].clone();
                assert_eq!(value.dims(), expected_dims, "parameter order mismatch");
                cursor += 1;
                value
            };
            let conv = |spec: Conv2dSpec, next: &mut dyn FnMut(&[usize]) -> Tensor| -> Op {
                let weight = next(&spec.weight_dims());
                let bias = next(&[spec.out_channels]);
                let (gw, gb) = (Tensor::zeros(weight.dims()), Tensor::zeros(bias.dims()));
                Op::Conv {
                    spec,
                    weight,
                    bias,
                    grad_weight: gw,
                    grad_bias: gb,
                    cached: None,
                }
            };
            let bn = |channels: usize, next: &mut dyn FnMut(&[usize]) -> Tensor| -> Op {
                Op::Bn {
                    gamma: next(&[channels]),
                    beta: next(&[channels]),
                    grad_gamma: Tensor::zeros(&[channels]),
                    grad_beta: Tensor::zeros(&[channels]),
                    running_mean: vec![0.0; channels],
                    running_var: vec![1.0; channels],
                    cache: None,
                }
            };
            let linear = |inp: usize, out: usize, next: &mut dyn FnMut(&[usize]) -> Tensor| -> Op {
                Op::Linear {
                    in_features: inp,
                    out_features: out,
                    weight: next(&[out, inp]),
                    bias: next(&[out]),
                    grad_weight: Tensor::zeros(&[out, inp]),
                    grad_bias: Tensor::zeros(&[out]),
                    cached: None,
                }
            };
            let _ = image;
            let mut backbone = Vec::new();
            backbone.push(conv(
                Conv2dSpec::new(3, 8, 3).with_stride(2).with_padding(1),
                &mut next,
            ));
            backbone.push(bn(8, &mut next));
            backbone.push(Op::HardSwish { cached: None });
            for (in_c, out_c, stride) in [(8usize, 16usize, 1usize), (16, 24, 2), (24, 32, 1)] {
                backbone.push(conv(
                    Conv2dSpec::new(in_c, in_c, 3)
                        .with_stride(stride)
                        .with_padding(1)
                        .with_groups(in_c),
                    &mut next,
                ));
                backbone.push(bn(in_c, &mut next));
                backbone.push(Op::HardSwish { cached: None });
                backbone.push(conv(Conv2dSpec::new(in_c, out_c, 1), &mut next));
                backbone.push(bn(out_c, &mut next));
                backbone.push(Op::HardSwish { cached: None });
            }
            backbone.push(Op::Gap { dims: None });
            backbone.push(Op::Flatten { dims: None });
            let mut heads = Vec::new();
            for classes in [8usize, 4] {
                heads.push(vec![
                    linear(32, 32, &mut next),
                    Op::Relu { cached: None },
                    linear(32, classes, &mut next),
                ]);
            }
            assert_eq!(cursor, values.len(), "parameter count mismatch");
            Self {
                backbone,
                heads,
                loss: CrossEntropyLoss::new(),
                opt: SeedAdamW::new(lr),
            }
        }

        fn forward_chain(ops: &mut [Op], input: &Tensor) -> Tensor {
            let mut current = input.clone();
            for op in ops.iter_mut() {
                current = op.forward(&current);
            }
            current
        }

        fn backward_chain(ops: &mut [Op], grad: &Tensor) -> Tensor {
            let mut current = grad.clone();
            for op in ops.iter_mut().rev() {
                current = op.backward(&current);
            }
            current
        }

        /// One seed training step, mirroring `train_batch`'s structure:
        /// zero grads (fresh tensors), backbone + all-head forward, per-head
        /// loss + backward summed into the shared-feature gradient, backbone
        /// backward, allocating AdamW sweep.
        pub fn train_step(&mut self, images: &Tensor, labels: &[Vec<usize>]) -> Vec<f32> {
            for op in self
                .backbone
                .iter_mut()
                .chain(self.heads.iter_mut().flatten())
            {
                for (value, grad) in op.params() {
                    *grad = Tensor::zeros(value.dims());
                }
            }
            let features = Self::forward_chain(&mut self.backbone, images);
            let logits: Vec<Tensor> = self
                .heads
                .iter_mut()
                .map(|head| Self::forward_chain(head, &features))
                .collect();
            let mut losses = Vec::with_capacity(self.heads.len());
            let mut grad_features = Tensor::zeros(features.dims());
            for (head_idx, (head, logit)) in self.heads.iter_mut().zip(&logits).enumerate() {
                let (value, grad_logits) = self
                    .loss
                    .forward_backward(logit, &labels[head_idx])
                    .expect("seed loss");
                losses.push(value);
                let grad = Self::backward_chain(head, &grad_logits);
                grad_features
                    .add_scaled_inplace(&grad, 1.0)
                    .expect("seed sum");
            }
            let _ = Self::backward_chain(&mut self.backbone, &grad_features);
            let mut params: Vec<(&mut Tensor, &mut Tensor)> = Vec::new();
            for op in self
                .backbone
                .iter_mut()
                .chain(self.heads.iter_mut().flatten())
            {
                params.extend(op.params());
            }
            self.opt.step(&mut params);
            losses
        }

        /// Every parameter value, in the same stable order as
        /// `MtlSplitModel::parameters_mut`.
        pub fn param_values(&mut self) -> Vec<Tensor> {
            let mut out = Vec::new();
            for op in self
                .backbone
                .iter_mut()
                .chain(self.heads.iter_mut().flatten())
            {
                for (value, _) in op.params() {
                    out.push(value.clone());
                }
            }
            out
        }
    }
}
