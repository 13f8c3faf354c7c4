//! 2-D convolution via im2col + matrix multiplication.

use std::ops::Range;

use tensor::{matmul_into, MatRef, Tensor, TensorRng};

use crate::layer::Layer;
use crate::{NnError, Result};

/// Spatial padding scheme, following TensorFlow's conventions (the paper's
/// CNN uses `SAME` everywhere; that is what makes the FC1 input 8·8·64 =
/// 4096 and the total parameter count ≈ 1.75M).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// No padding: output `(h - k)/s + 1` (floor).
    Valid,
    /// Zero padding so that output is `ceil(h / s)`; padding may be
    /// asymmetric (extra row/column at the bottom/right), exactly like
    /// TensorFlow.
    Same,
}

impl Padding {
    /// Returns `(out, pad_begin)` along one spatial axis of size `h` for
    /// kernel `k` and stride `s`.
    pub(crate) fn geometry(self, h: usize, k: usize, s: usize) -> (usize, usize) {
        match self {
            Padding::Valid => {
                assert!(h >= k, "valid padding requires input >= kernel");
                ((h - k) / s + 1, 0)
            }
            Padding::Same => {
                let out = h.div_ceil(s);
                let pad_total = ((out - 1) * s + k).saturating_sub(h);
                (out, pad_total / 2)
            }
        }
    }
}

/// 2-D convolution over `[batch, channels, height, width]` activations.
///
/// Weights `[out_channels, in_channels · k · k]`, bias `[out_channels]`.
/// Each sample is lowered to a column matrix (im2col) and multiplied by
/// the weight matrix with [`tensor::matmul_into`], straight into the
/// output. The lowering is a gather through index tables built once per
/// input size. The layer keeps one column buffer, sized for one sample
/// and reused by every sample and every call. The backward pass
/// recomputes a sample's columns from the cached input, in the transposed
/// layout its `dW` product wants, and then reuses the same buffer for that
/// sample's column gradients. Caching the columns of a whole batch instead
/// would cost hundreds of MB at CIFAR scale, and even at test scale a
/// whole-batch buffer is large enough for the allocator to map it afresh
/// on every call.
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: Padding,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    lowering: Lowering,
    /// One sample's columns (or column gradients), reused across calls.
    cols: Vec<f32>,
    /// One sample's weight gradient, before it is added to `grad_weight`.
    sample_dw: Vec<f32>,
}

/// The im2col lowering of one input size as two gather tables. Entry
/// `(tap, position)` is the index, within one `[c, h, w]` sample, of the
/// input value kernel tap `tap = (c, kh, kw)` reads at output position
/// `position = (oy, ox)`, or `c·h·w` (a zero slot one past the sample)
/// where the tap falls in the padding.
#[derive(Debug, Default)]
struct Lowering {
    /// The input `(h, w)` the tables were built for.
    hw: (usize, usize),
    /// Tap-major, `[c·k·k, oh·ow]`: the forward pass's column matrix, and
    /// the `(c, kh, kw, oy, ox)` order [`Lowering::col2im`] adds in.
    taps: Vec<u32>,
    /// Position-major, `[oh·ow, c·k·k]`: the transposed columns of `dW`.
    taps_t: Vec<u32>,
    /// One sample plus the zero slot, so the gathers index it directly.
    sample: Vec<f32>,
}

impl Lowering {
    fn build(c_in: usize, g: &Geometry) -> Self {
        let (h, w, k, s) = (g.h, g.w, g.k, g.s);
        let chw = c_in * h * w;
        let pad = u32::try_from(chw).expect("sample indexes fit in u32");
        let mut taps = Vec::with_capacity(c_in * k * k * g.oh * g.ow);
        for c in 0..c_in {
            for kh in 0..k {
                for kw in 0..k {
                    for oy in 0..g.oh {
                        for ox in 0..g.ow {
                            // Unsigned wrap-around sends taps above or left
                            // of the plane past its end too.
                            let iy = (oy * s + kh).wrapping_sub(g.pad_h);
                            let ix = (ox * s + kw).wrapping_sub(g.pad_w);
                            taps.push(if iy < h && ix < w {
                                (c * h * w + iy * w + ix) as u32
                            } else {
                                pad
                            });
                        }
                    }
                }
            }
        }
        let (ckk, n_cols) = (c_in * k * k, g.oh * g.ow);
        let taps_t = (0..taps.len())
            .map(|q| taps[(q % ckk) * n_cols + q / ckk])
            .collect();
        Lowering {
            hw: (h, w),
            taps,
            taps_t,
            sample: vec![0.0; chw + 1],
        }
    }

    /// im2col: `cols[i] = sample[table[i]]`, 0 in the padding, through
    /// `taps` (`transposed = false`) or `taps_t`.
    fn im2col(&mut self, sample: &[f32], transposed: bool, cols: &mut [f32]) {
        let (padded, zero) = self.sample.split_at_mut(sample.len());
        padded.copy_from_slice(sample);
        zero[0] = 0.0;
        let table = if transposed { &self.taps_t } else { &self.taps };
        for (d, &t) in cols.iter_mut().zip(table) {
            *d = self.sample[t as usize];
        }
    }

    /// col2im, the adjoint of [`Lowering::im2col`]: `dsample[taps[i]] +=
    /// dcols[i]` in `taps` order, dropping what lands in the padding.
    fn col2im(&mut self, dcols: &[f32], dsample: &mut [f32]) {
        self.sample.fill(0.0);
        for (&v, &t) in dcols.iter().zip(&self.taps) {
            self.sample[t as usize] += v;
        }
        dsample.copy_from_slice(&self.sample[..dsample.len()]);
    }
}

/// Where a convolution or pooling window lands on one sample: the input
/// plane, the window, and the output grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) k: usize,
    pub(crate) s: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) pad_h: usize,
    pub(crate) pad_w: usize,
}

impl Geometry {
    pub(crate) fn new(padding: Padding, h: usize, w: usize, k: usize, s: usize) -> Self {
        let (oh, pad_h) = padding.geometry(h, k, s);
        let (ow, pad_w) = padding.geometry(w, k, s);
        Geometry {
            h,
            w,
            k,
            s,
            oh,
            ow,
            pad_h,
            pad_w,
        }
    }

    /// The input rows output row `oy`'s window covers inside the plane.
    pub(crate) fn input_rows(&self, oy: usize) -> Range<usize> {
        window(oy * self.s, self.pad_h, self.h, self.k)
    }

    /// The input columns output column `ox`'s window covers inside the
    /// plane.
    pub(crate) fn input_cols(&self, ox: usize) -> Range<usize> {
        window(ox * self.s, self.pad_w, self.w, self.k)
    }
}

/// `[start − pad, start − pad + k) ∩ [0, size)`.
fn window(start: usize, pad: usize, size: usize, k: usize) -> Range<usize> {
    let lo = start.saturating_sub(pad).min(size);
    let hi = (start + k).saturating_sub(pad).clamp(lo, size);
    lo..hi
}

impl Conv2d {
    /// Creates the layer with Glorot-uniform weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: Padding,
        rng: &mut TensorRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = rng.glorot_uniform(&[out_channels, fan_in], fan_in, fan_out);
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_input: None,
            lowering: Lowering::default(),
            cols: Vec::new(),
            sample_dw: Vec::new(),
        }
    }

    /// Output spatial size for an input of `h × w`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let (oh, _) = self.padding.geometry(h, self.kernel, self.stride);
        let (ow, _) = self.padding.geometry(w, self.kernel, self.stride);
        (oh, ow)
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, Geometry)> {
        if input.rank() != 4 || input.dims()[1] != self.in_channels {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("[batch, {}, h, w]", self.in_channels),
                got: input.dims().to_vec(),
            });
        }
        if self.padding == Padding::Valid
            && (input.dims()[2] < self.kernel || input.dims()[3] < self.kernel)
        {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("spatial dims >= kernel {}", self.kernel),
                got: input.dims().to_vec(),
            });
        }
        let (h, w) = (input.dims()[2], input.dims()[3]);
        Ok((
            input.dims()[0],
            Geometry::new(self.padding, h, w, self.kernel, self.stride),
        ))
    }

    /// Rebuilds the gather tables when the input size changed.
    fn lower(&mut self, g: &Geometry) {
        if self.lowering.hw != (g.h, g.w) {
            self.lowering = Lowering::build(self.in_channels, g);
        }
    }

    /// The backward pass; forms the input gradient only when `want_dx`.
    fn backprop(&mut self, grad_out: &Tensor, want_dx: bool) -> Result<Option<Tensor>> {
        let input = self
            .cached_input
            .clone()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        let (batch, g) = self.check_input(&input)?;
        self.lower(&g);
        let oc = self.out_channels;
        if grad_out.dims() != [batch, oc, g.oh, g.ow] {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("[{batch}, {oc}, {}, {}] gradient", g.oh, g.ow),
                got: grad_out.dims().to_vec(),
            });
        }
        let ckk = self.in_channels * self.kernel * self.kernel;
        let n_cols = g.oh * g.ow;
        let chw = self.in_channels * g.h * g.w;
        self.cols.resize(ckk * n_cols, 0.0);
        self.sample_dw.resize(oc * ckk, 0.0);
        let mut dx = want_dx.then(|| Tensor::zeros(input.dims()));
        let grad_weight = self.grad_weight.as_mut_slice();
        let grad_bias = self.grad_bias.as_mut_slice();
        let weight_t = MatRef::transposed(self.weight.as_slice(), ckk, oc);
        for (b, go) in grad_out.as_slice().chunks_exact(oc * n_cols).enumerate() {
            let sample = &input.as_slice()[b * chw..(b + 1) * chw];
            // dW_b = dy · colsᵀ, added to the accumulator sample by sample.
            self.lowering.im2col(sample, true, &mut self.cols);
            matmul_into(
                MatRef::new(go, oc, n_cols),
                &self.cols,
                ckk,
                &mut self.sample_dw,
            );
            for (acc, &v) in grad_weight.iter_mut().zip(&self.sample_dw) {
                *acc += v;
            }
            // db += per-channel sums of dy
            for (acc, row) in grad_bias.iter_mut().zip(go.chunks_exact(n_cols)) {
                let s: f32 = row.iter().sum();
                *acc += s;
            }
            // dcols = Wᵀ · dy, scattered back to dx
            if let Some(dx) = dx.as_mut() {
                matmul_into(weight_t, go, n_cols, &mut self.cols);
                let dsample = &mut dx.as_mut_slice()[b * chw..(b + 1) * chw];
                self.lowering.col2im(&self.cols, dsample);
            }
        }
        Ok(dx)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv2d({}->{},k={},s={})",
            self.in_channels, self.out_channels, self.kernel, self.stride
        )
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let (batch, g) = self.check_input(input)?;
        self.lower(&g);
        let (oc, ckk) = (self.out_channels, self.weight.dims()[1]);
        let n_cols = g.oh * g.ow;
        let chw = self.in_channels * g.h * g.w;
        let mut out = vec![0.0f32; batch * oc * n_cols];
        self.cols.resize(ckk * n_cols, 0.0);
        let weight = MatRef::new(self.weight.as_slice(), oc, ckk);
        for (sample, dst) in input
            .as_slice()
            .chunks_exact(chw)
            .zip(out.chunks_exact_mut(oc * n_cols))
        {
            self.lowering.im2col(sample, false, &mut self.cols);
            matmul_into(weight, &self.cols, n_cols, dst);
            for (row, &bias) in dst.chunks_exact_mut(n_cols).zip(self.bias.as_slice()) {
                for d in row {
                    *d += bias;
                }
            }
        }
        self.cached_input = Some(input.clone());
        Ok(Tensor::from_vec(out, &[batch, oc, g.oh, g.ow])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        Ok(self
            .backprop(grad_out, true)?
            .expect("input gradient requested"))
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backprop(grad_out, false).map(drop)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight = Tensor::zeros(self.grad_weight.dims());
        self.grad_bias = Tensor::zeros(self.grad_bias.dims());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_geometry_matches_tensorflow() {
        // SAME, k=5, s=1 on 32: out 32, pad 2 (symmetric).
        assert_eq!(Padding::Same.geometry(32, 5, 1), (32, 2));
        // SAME, k=3, s=2 on 32: out 16, pad_total 1 → pad_begin 0.
        assert_eq!(Padding::Same.geometry(32, 3, 2), (16, 0));
        // VALID, k=3, s=1 on 5: out 3.
        assert_eq!(Padding::Valid.geometry(5, 3, 1), (3, 0));
        // VALID, k=2, s=2 on 6: out 3.
        assert_eq!(Padding::Valid.geometry(6, 2, 2), (3, 0));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1: convolution is the identity map.
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, Padding::Same, &mut rng);
        conv.params_mut()[0].as_mut_slice()[0] = 1.0;
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_valid_convolution() {
        // Input 1x1x3x3 = [[1..9]], kernel 2x2 of ones, VALID, stride 1:
        // out[0,0] = 1+2+4+5 = 12, out[0,1] = 2+3+5+6 = 16,
        // out[1,0] = 4+5+7+8 = 24, out[1,1] = 5+6+8+9 = 28.
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(1, 1, 2, 1, Padding::Valid, &mut rng);
        for wv in conv.params_mut()[0].as_mut_slice() {
            *wv = 1.0;
        }
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn same_padding_zero_pads_borders() {
        // 3x3 ones kernel over a 2x2 input of ones with SAME padding:
        // each output = count of in-bounds neighbours.
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, Padding::Same, &mut rng);
        for wv in conv.params_mut()[0].as_mut_slice() {
            *wv = 1.0;
        }
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(1, 2, 1, 1, Padding::Same, &mut rng);
        conv.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[0.0, 0.0]);
        conv.params_mut()[1]
            .as_mut_slice()
            .copy_from_slice(&[1.5, -2.5]);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(&y.as_slice()[..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..], &[-2.5; 4]);
    }

    #[test]
    fn multi_channel_sums_over_input_channels() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(2, 1, 1, 1, Padding::Same, &mut rng);
        conv.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[2.0, 3.0]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 10.0, 10.0], &[1, 2, 1, 2]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        // 2*1 + 3*10 = 32 at each position
        assert_eq!(y.as_slice(), &[32.0, 32.0]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(3, 1, 3, 1, Padding::Same, &mut rng);
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 4, 4]), true).is_err());
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = TensorRng::new(0);
        let conv = Conv2d::new(3, 64, 5, 1, Padding::Same, &mut rng);
        assert_eq!(conv.param_count(), 5 * 5 * 3 * 64 + 64);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = TensorRng::new(0);
        let mut conv = Conv2d::new(2, 3, 3, 1, Padding::Same, &mut rng);
        let x = rng.uniform_tensor(&[2, 2, 4, 4], -1.0, 1.0);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 3, 4, 4]);
        let dx = conv.backward(&Tensor::ones(&[2, 3, 4, 4])).unwrap();
        assert_eq!(dx.dims(), &[2, 2, 4, 4]);
        assert_eq!(conv.grads()[0].dims(), &[3, 18]);
        assert_eq!(conv.grads()[1].dims(), &[3]);
    }

    #[test]
    fn strided_same_pool_geometry_asymmetric() {
        // k=3, s=2 on h=32 pads only at the bottom (pad_begin = 0)
        let (out, pad) = Padding::Same.geometry(32, 3, 2);
        assert_eq!((out, pad), (16, 0));
        // k=3, s=2 on h=16 → out 8, pad_total = 7*2+3-16 = 1, begin 0
        assert_eq!(Padding::Same.geometry(16, 3, 2), (8, 0));
    }
}
