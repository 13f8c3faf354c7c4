//! Reference oracles for the gradient kernels: the plain loops the layers
//! used before their kernels were tiled, kept verbatim in structure so the
//! property tests below can demand **bit-identical** outputs, `dW`, `db`
//! and `dx` from the layers on arbitrary shapes and values (zeros of both
//! signs, NaN, ±∞).
//!
//! One deliberate difference from the old max-pool: its argmax starts at
//! the window's first in-bounds element, not at global index 0 (an
//! all-NaN or all-−∞ window used to send its gradient to element 0 of the
//! batch).

use proptest::prelude::*;
use tensor::{Tensor, TensorRng};

use crate::conv::Padding;
use crate::{Conv2d, Dense, Layer, MaxPool2d, Relu};

/// The textbook `i-p-j` product that skips `a[i][p] = 0`.
fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// One convolution's shape parameters.
#[derive(Debug, Clone, Copy)]
struct ConvSpec {
    c_in: usize,
    oc: usize,
    k: usize,
    s: usize,
    padding: Padding,
}

struct Planes {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    pad_h: usize,
    pad_w: usize,
}

fn planes(spec: ConvSpec, x: &Tensor) -> Planes {
    let (h, w) = (x.dims()[2], x.dims()[3]);
    let (oh, pad_h) = spec.padding.geometry(h, spec.k, spec.s);
    let (ow, pad_w) = spec.padding.geometry(w, spec.k, spec.s);
    Planes {
        h,
        w,
        oh,
        ow,
        pad_h,
        pad_w,
    }
}

fn im2col(spec: ConvSpec, p: &Planes, sample: &[f32], cols: &mut [f32]) {
    let (k, s) = (spec.k, spec.s);
    let n_cols = p.oh * p.ow;
    for c in 0..spec.c_in {
        let plane = &sample[c * p.h * p.w..(c + 1) * p.h * p.w];
        for kh in 0..k {
            for kw in 0..k {
                let row = (c * k + kh) * k + kw;
                let dst = &mut cols[row * n_cols..(row + 1) * n_cols];
                for oy in 0..p.oh {
                    let iy = (oy * s + kh) as isize - p.pad_h as isize;
                    let base = oy * p.ow;
                    if iy < 0 || iy >= p.h as isize {
                        dst[base..base + p.ow].fill(0.0);
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..p.ow {
                        let ix = (ox * s + kw) as isize - p.pad_w as isize;
                        dst[base + ox] = if ix < 0 || ix >= p.w as isize {
                            0.0
                        } else {
                            plane[iy * p.w + ix as usize]
                        };
                    }
                }
            }
        }
    }
}

fn col2im(spec: ConvSpec, p: &Planes, dcols: &[f32], dsample: &mut [f32]) {
    let (k, s) = (spec.k, spec.s);
    let n_cols = p.oh * p.ow;
    for c in 0..spec.c_in {
        let plane = &mut dsample[c * p.h * p.w..(c + 1) * p.h * p.w];
        for kh in 0..k {
            for kw in 0..k {
                let row = (c * k + kh) * k + kw;
                let src = &dcols[row * n_cols..(row + 1) * n_cols];
                for oy in 0..p.oh {
                    let iy = (oy * s + kh) as isize - p.pad_h as isize;
                    if iy < 0 || iy >= p.h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..p.ow {
                        let ix = (ox * s + kw) as isize - p.pad_w as isize;
                        if ix >= 0 && ix < p.w as isize {
                            plane[iy * p.w + ix as usize] += src[oy * p.ow + ox];
                        }
                    }
                }
            }
        }
    }
}

fn conv_forward(spec: ConvSpec, x: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
    let p = planes(spec, x);
    let batch = x.dims()[0];
    let ckk = spec.c_in * spec.k * spec.k;
    let n_cols = p.oh * p.ow;
    let mut out = Tensor::zeros(&[batch, spec.oc, p.oh, p.ow]);
    let mut cols = vec![0.0f32; ckk * n_cols];
    for b in 0..batch {
        let sample = &x.as_slice()[b * spec.c_in * p.h * p.w..];
        im2col(spec, &p, sample, &mut cols);
        let cols_t = Tensor::from_vec(cols.clone(), &[ckk, n_cols]).unwrap();
        let out_mat = matmul(weight, &cols_t);
        let dst = &mut out.as_mut_slice()[b * spec.oc * n_cols..(b + 1) * spec.oc * n_cols];
        for oc in 0..spec.oc {
            let bias = bias.as_slice()[oc];
            for (d, &v) in dst[oc * n_cols..(oc + 1) * n_cols]
                .iter_mut()
                .zip(&out_mat.as_slice()[oc * n_cols..(oc + 1) * n_cols])
            {
                *d = v + bias;
            }
        }
    }
    out
}

/// `(dW, db, dx)` accumulated from zero over the batch.
fn conv_backward(
    spec: ConvSpec,
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let p = planes(spec, x);
    let batch = x.dims()[0];
    let ckk = spec.c_in * spec.k * spec.k;
    let n_cols = p.oh * p.ow;
    let mut grad_weight = Tensor::zeros(&[spec.oc, ckk]);
    let mut grad_bias = Tensor::zeros(&[spec.oc]);
    let mut dx = Tensor::zeros(x.dims());
    let mut cols = vec![0.0f32; ckk * n_cols];
    let weight_t = weight.transpose().unwrap();
    for b in 0..batch {
        let sample = &x.as_slice()[b * spec.c_in * p.h * p.w..];
        im2col(spec, &p, sample, &mut cols);
        let cols_t = Tensor::from_vec(cols.clone(), &[ckk, n_cols]).unwrap();
        let go_mat = Tensor::from_vec(
            grad_out.as_slice()[b * spec.oc * n_cols..(b + 1) * spec.oc * n_cols].to_vec(),
            &[spec.oc, n_cols],
        )
        .unwrap();
        let dw = matmul(&go_mat, &cols_t.transpose().unwrap());
        grad_weight.add_assign(&dw).unwrap();
        for oc in 0..spec.oc {
            let s: f32 = go_mat.as_slice()[oc * n_cols..(oc + 1) * n_cols]
                .iter()
                .sum();
            grad_bias.as_mut_slice()[oc] += s;
        }
        let dcols = matmul(&weight_t, &go_mat);
        let dsample =
            &mut dx.as_mut_slice()[b * spec.c_in * p.h * p.w..(b + 1) * spec.c_in * p.h * p.w];
        col2im(spec, &p, dcols.as_slice(), dsample);
    }
    (grad_weight, grad_bias, dx)
}

/// `(y, dW, db, dx)` of a dense layer.
fn dense(x: &Tensor, w: &Tensor, bias: &Tensor, dy: &Tensor) -> [Tensor; 4] {
    let mut y = matmul(x, w);
    let out = w.dims()[1];
    for row in y.as_mut_slice().chunks_exact_mut(out) {
        for (o, &bv) in row.iter_mut().zip(bias.as_slice()) {
            *o += bv;
        }
    }
    let mut gw = Tensor::zeros(w.dims());
    gw.add_assign(&matmul(&x.transpose().unwrap(), dy)).unwrap();
    let mut gb = Tensor::zeros(&[out]);
    for row in dy.as_slice().chunks_exact(out) {
        for (g, &v) in gb.as_mut_slice().iter_mut().zip(row) {
            *g += v;
        }
    }
    let dx = matmul(dy, &w.transpose().unwrap());
    [y, gw, gb, dx]
}

fn relu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    let mask: Vec<bool> = x.as_slice().iter().map(|&v| v > 0.0).collect();
    let mut dx = dy.clone();
    for (g, &m) in dx.as_mut_slice().iter_mut().zip(&mask) {
        if !m {
            *g = 0.0;
        }
    }
    dx
}

/// `(y, argmax)` of a max pool.
fn maxpool_forward(k: usize, s: usize, padding: Padding, x: &Tensor) -> (Tensor, Vec<usize>) {
    let (batch, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (oh, pad_h) = padding.geometry(h, k, s);
    let (ow, pad_w) = padding.geometry(w, k, s);
    let mut out = Tensor::zeros(&[batch, c, oh, ow]);
    let mut argmax = vec![0usize; batch * c * oh * ow];
    let src = x.as_slice();
    let dst = out.as_mut_slice();
    for b in 0..batch {
        for ch in 0..c {
            let plane_off = (b * c + ch) * h * w;
            let out_off = (b * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = None;
                    for ky in 0..k {
                        let iy = (oy * s + ky) as isize - pad_h as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * s + kx) as isize - pad_w as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = plane_off + iy as usize * w + ix as usize;
                            best_idx.get_or_insert(idx);
                            if src[idx] > best {
                                best = src[idx];
                                best_idx = Some(idx);
                            }
                        }
                    }
                    dst[out_off + oy * ow + ox] = best;
                    argmax[out_off + oy * ow + ox] = best_idx.expect("window is never empty");
                }
            }
        }
    }
    (out, argmax)
}

/// Bit patterns, every NaN mapped to one (Rust leaves NaN sign and
/// payload unspecified, so only NaN-ness is comparable).
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice()
        .iter()
        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
        .collect()
}

/// A tensor of normal draws with `±0` mixed in and, when `non_finite`,
/// NaN and `±∞` too.
fn values(rng: &mut TensorRng, dims: &[usize], non_finite: bool) -> Tensor {
    let len = dims.iter().product();
    let data = (0..len)
        .map(|_| match (rng.uniform(0.0, 1.0) * 12.0) as u32 {
            0 => 0.0,
            1 => -0.0,
            2 if non_finite => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                [(rng.uniform(0.0, 3.0) as usize).min(2)],
            _ => rng.normal(0.0, 1.0),
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

fn set_params(layer: &mut dyn Layer, params: &[&Tensor]) {
    for (p, v) in layer.params_mut().into_iter().zip(params) {
        p.as_mut_slice().copy_from_slice(v.as_slice());
    }
}

fn check_conv(spec: ConvSpec, batch: usize, h: usize, w: usize, seed: u64, non_finite: bool) {
    let mut rng = TensorRng::new(seed);
    let ckk = spec.c_in * spec.k * spec.k;
    let x = values(&mut rng, &[batch, spec.c_in, h, w], non_finite);
    let weight = values(&mut rng, &[spec.oc, ckk], non_finite);
    let bias = values(&mut rng, &[spec.oc], non_finite);
    let y = conv_forward(spec, &x, &weight, &bias);
    let dy = values(&mut rng, y.dims(), non_finite);
    let (gw, gb, dx) = conv_backward(spec, &x, &weight, &dy);

    let mut conv = Conv2d::new(spec.c_in, spec.oc, spec.k, spec.s, spec.padding, &mut rng);
    set_params(&mut conv, &[&weight, &bias]);
    // Twice over, so the second pass runs on the reused buffers.
    for _ in 0..2 {
        conv.zero_grads();
        assert_eq!(
            bits(&conv.forward(&x, true).unwrap()),
            bits(&y),
            "{spec:?} y"
        );
        assert_eq!(bits(&conv.backward(&dy).unwrap()), bits(&dx), "{spec:?} dx");
        assert_eq!(bits(conv.grads()[0]), bits(&gw), "{spec:?} dW");
        assert_eq!(bits(conv.grads()[1]), bits(&gb), "{spec:?} db");
        conv.zero_grads();
        conv.backward_params(&dy).unwrap();
        assert_eq!(bits(conv.grads()[0]), bits(&gw), "{spec:?} dW, no dx");
        assert_eq!(bits(conv.grads()[1]), bits(&gb), "{spec:?} db, no dx");
    }
}

fn padding(valid: bool) -> Padding {
    if valid {
        Padding::Valid
    } else {
        Padding::Same
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes, strides 1–3, both paddings, batch 1 upward.
    #[test]
    fn conv_matches_oracle(
        (c_in, oc, k, s) in (1usize..4, 1usize..6, 1usize..4, 1usize..4),
        (batch, h, w) in (1usize..4, 3usize..9, 3usize..9),
        valid in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = ConvSpec { c_in, oc, k, s, padding: padding(valid) };
        check_conv(spec, batch, h, w, seed, false);
    }

    /// NaN and ±∞ in the input, weights and gradient: the kernels'
    /// non-finite fallback.
    #[test]
    fn conv_matches_oracle_non_finite(
        (c_in, oc, k, s) in (1usize..4, 1usize..5, 1usize..4, 1usize..3),
        (batch, h, w) in (1usize..3, 3usize..7, 3usize..7),
        valid in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = ConvSpec { c_in, oc, k, s, padding: padding(valid) };
        check_conv(spec, batch, h, w, seed, true);
    }

    /// Dense forward, `dW`, `db` and `dx` on random shapes and values.
    #[test]
    fn dense_matches_oracle(
        (batch, fan_in, fan_out) in (1usize..12, 1usize..20, 1usize..20),
        non_finite in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = TensorRng::new(seed);
        let x = values(&mut rng, &[batch, fan_in], non_finite);
        let wt = values(&mut rng, &[fan_in, fan_out], non_finite);
        let bias = values(&mut rng, &[fan_out], non_finite);
        let dy = values(&mut rng, &[batch, fan_out], non_finite);
        let want = dense(&x, &wt, &bias, &dy);
        let mut layer = Dense::new(fan_in, fan_out, &mut rng);
        set_params(&mut layer, &[&wt, &bias]);
        let y = layer.forward(&x, true).unwrap();
        let dx = layer.backward(&dy).unwrap();
        let got = [y, layer.grads()[0].clone(), layer.grads()[1].clone(), dx];
        for (name, (g, w)) in ["y", "dW", "db", "dx"].iter().zip(got.iter().zip(&want)) {
            prop_assert_eq!(bits(g), bits(w), "dense {}", name);
        }
        layer.zero_grads();
        layer.backward_params(&dy).unwrap();
        prop_assert_eq!(bits(layer.grads()[0]), bits(&want[1]));
        prop_assert_eq!(bits(layer.grads()[1]), bits(&want[2]));
    }

    /// ReLU masks the gradient exactly as the copy-on-write loop did.
    #[test]
    fn relu_matches_oracle(len in 1usize..64, non_finite in any::<bool>(), seed in any::<u64>()) {
        let mut rng = TensorRng::new(seed);
        let x = values(&mut rng, &[len], non_finite);
        let dy = values(&mut rng, &[len], non_finite);
        let mut relu = Relu::new();
        relu.forward(&x, true).unwrap();
        prop_assert_eq!(bits(&relu.backward(&dy).unwrap()), bits(&relu_backward(&x, &dy)));
    }

    /// Max pooling: values, winners and the routed gradient.
    #[test]
    fn maxpool_matches_oracle(
        (k, s) in (1usize..4, 1usize..4),
        (batch, c, h, w) in (1usize..3, 1usize..3, 3usize..9, 3usize..9),
        valid in any::<bool>(),
        non_finite in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = TensorRng::new(seed);
        let x = values(&mut rng, &[batch, c, h, w], non_finite);
        let (y, argmax) = maxpool_forward(k, s, padding(valid), &x);
        let dy = values(&mut rng, y.dims(), non_finite);
        let mut dx = Tensor::zeros(x.dims());
        for (&i, &g) in argmax.iter().zip(dy.as_slice()) {
            dx.as_mut_slice()[i] += g;
        }
        let mut pool = MaxPool2d::new(k, s, padding(valid));
        prop_assert_eq!(bits(&pool.forward(&x, true).unwrap()), bits(&y));
        prop_assert_eq!(bits(&pool.backward(&dy).unwrap()), bits(&dx));
    }
}
