//! Max pooling.

use std::ops::Range;

use tensor::Tensor;

use crate::conv::{Geometry, Padding};
use crate::layer::Layer;
use crate::{NnError, Result};

/// 2-D max pooling over `[batch, channels, height, width]` activations.
///
/// The paper's CNN uses 3×3 windows with stride 2 and `SAME` padding
/// (Table 1). Padded cells never win the max (they are treated as −∞ /
/// skipped), matching TensorFlow's behaviour.
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    padding: Padding,
    /// For each output element, the flat input index that won the max.
    argmax: Option<Vec<usize>>,
    input_dims: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates the layer.
    pub fn new(kernel: usize, stride: usize, padding: Padding) -> Self {
        MaxPool2d {
            kernel,
            stride,
            padding,
            argmax: None,
            input_dims: None,
        }
    }

    /// Output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let (oh, _) = self.padding.geometry(h, self.kernel, self.stride);
        let (ow, _) = self.padding.geometry(w, self.kernel, self.stride);
        (oh, ow)
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool2d(k={},s={})", self.kernel, self.stride)
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        if input.rank() != 4 {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: "[batch, channels, h, w]".to_owned(),
                got: input.dims().to_vec(),
            });
        }
        let (batch, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let g = Geometry::new(self.padding, h, w, self.kernel, self.stride);
        // Every window's in-bounds input rows and columns, worked out once
        // per call rather than once per window.
        let rows: Vec<Range<usize>> = (0..g.oh).map(|oy| g.input_rows(oy)).collect();
        let cols: Vec<Range<usize>> = (0..g.ow).map(|ox| g.input_cols(ox)).collect();
        let mut out = vec![0.0f32; batch * c * g.oh * g.ow];
        let mut argmax = vec![0usize; out.len()];
        let src = input.as_slice();
        let out_rows = out
            .chunks_exact_mut(g.ow)
            .zip(argmax.chunks_exact_mut(g.ow));
        for (row, (dst, arg)) in out_rows.enumerate() {
            // Output row `oy` of plane `plane`.
            let (plane, oy) = (row / g.oh, row % g.oh);
            let plane_off = plane * h * w;
            for ((d, a), xs) in dst.iter_mut().zip(arg.iter_mut()).zip(&cols) {
                // Windows are never empty under either padding. Ties, and
                // an all-NaN or all-−∞ window, keep the first in-bounds
                // element.
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = plane_off + rows[oy].start * w + xs.start;
                for iy in rows[oy].clone() {
                    let first = plane_off + iy * w + xs.start;
                    for (idx, &v) in (first..).zip(&src[first..first + xs.len()]) {
                        // Selects rather than a branch: which element wins
                        // is data-dependent and mispredicts.
                        let wins = v > best;
                        best = if wins { v } else { best };
                        best_idx = if wins { idx } else { best_idx };
                    }
                }
                *d = best;
                *a = best_idx;
            }
        }
        self.argmax = Some(argmax);
        self.input_dims = Some(input.dims().to_vec());
        Ok(Tensor::from_vec(out, &[batch, c, g.oh, g.ow])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let argmax = self
            .argmax
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        let input_dims = self.input_dims.as_ref().expect("set with argmax");
        if grad_out.len() != argmax.len() {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("{} elements", argmax.len()),
                got: grad_out.dims().to_vec(),
            });
        }
        let mut dx = Tensor::zeros(input_dims);
        let d = dx.as_mut_slice();
        for (&idx, &g) in argmax.iter().zip(grad_out.as_slice()) {
            d[idx] += g;
        }
        Ok(dx)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maxima_valid() {
        // 2x2 pooling stride 2 on a 4x4 plane.
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn paper_geometry_32_to_16() {
        let pool = MaxPool2d::new(3, 2, Padding::Same);
        assert_eq!(pool.output_hw(32, 32), (16, 16));
        assert_eq!(pool.output_hw(16, 16), (8, 8));
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], &[1, 1, 2, 2]).unwrap();
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[3.0]);
        let dx = pool
            .backward(&Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn padded_cells_never_win() {
        // All-negative input with SAME padding: zeros in the pad would win a
        // naive max; ensure the real (negative) values are selected.
        let x = Tensor::from_vec(vec![-5.0, -3.0, -4.0, -6.0], &[1, 1, 2, 2]).unwrap();
        let mut pool = MaxPool2d::new(3, 2, Padding::Same);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.as_slice(), &[-3.0]);
    }

    #[test]
    fn a_window_with_no_winner_routes_to_its_first_element() {
        // Sample 1's windows are all NaN and all −∞: nothing beats the −∞
        // start, so the output is −∞ and the gradient goes to the window's
        // first element — not to element 0 of sample 0.
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        x.extend([f32::NAN; 4]);
        x.extend([f32::NEG_INFINITY; 4]);
        let x = Tensor::from_vec(x, &[3, 1, 2, 2]).unwrap();
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[4.0, f32::NEG_INFINITY, f32::NEG_INFINITY]);
        let dy = Tensor::from_vec(vec![1.0, 10.0, 100.0], &[3, 1, 1, 1]).unwrap();
        let dx = pool.backward(&dy).unwrap();
        let mut want = vec![0.0; 12];
        want[3] = 1.0;
        want[4] = 10.0;
        want[8] = 100.0;
        assert_eq!(dx.as_slice(), want.as_slice());
    }

    #[test]
    fn a_clipped_window_starts_at_its_first_in_bounds_element() {
        // SAME, k=3, s=2 on 3×3 pads one row and column on each side. The
        // last window's in-bounds cells are 4, 5, 7 and 8, all NaN, so its
        // gradient goes to cell 4.
        let mut x: Vec<f32> = (0..9).map(|v| v as f32).collect();
        for i in [4, 5, 7, 8] {
            x[i] = f32::NAN;
        }
        let x = Tensor::from_vec(x, &[1, 1, 3, 3]).unwrap();
        let mut pool = MaxPool2d::new(3, 2, Padding::Same);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 2.0, 6.0, f32::NEG_INFINITY]);
        let dx = pool.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        let mut want = [0.0; 9];
        for i in [2, 3, 4, 6] {
            want[i] = 1.0;
        }
        assert_eq!(dx.as_slice(), &want);
    }

    #[test]
    fn rejects_non_4d() {
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        assert!(pool.forward(&Tensor::zeros(&[4, 4]), true).is_err());
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn per_channel_independence() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, // channel 0
                40.0, 30.0, 20.0, 10.0, // channel 1
            ],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let mut pool = MaxPool2d::new(2, 2, Padding::Valid);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 40.0]);
    }
}
