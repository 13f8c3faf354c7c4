//! Fully-connected layer.

use tensor::{matmul_into, MatRef, Tensor, TensorRng};

use crate::layer::Layer;
use crate::{NnError, Result};

/// A fully-connected (affine) layer: `y = x · W + b`.
///
/// Input `[batch, in_features]`, output `[batch, out_features]`.
/// `W` has shape `[in_features, out_features]`, `b` has `[out_features]`.
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates the layer with Glorot-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        let weight = rng.glorot_uniform(&[in_features, out_features], in_features, out_features);
        Dense {
            in_features,
            out_features,
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn name(&self) -> String {
        format!("dense({}x{})", self.in_features, self.out_features)
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("[batch, {}]", self.in_features),
                got: input.dims().to_vec(),
            });
        }
        let mut out = input.matmul(&self.weight)?;
        let batch = input.dims()[0];
        // broadcast-add the bias row
        let out_slice = out.as_mut_slice();
        let bias = self.bias.as_slice();
        for b in 0..batch {
            for (o, &bv) in out_slice[b * self.out_features..(b + 1) * self.out_features]
                .iter_mut()
                .zip(bias)
            {
                *o += bv;
            }
        }
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_out)?;
        // dx = dy · Wᵀ
        Ok(grad_out.matmul(&self.weight.transpose()?)?)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        let batch = input.dims()[0];
        if grad_out.rank() != 2
            || grad_out.dims()[0] != batch
            || grad_out.dims()[1] != self.out_features
        {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("[batch, {}] gradient", self.out_features),
                got: grad_out.dims().to_vec(),
            });
        }
        // dW = xᵀ · dy ; db = Σ_batch dy
        let mut dw = vec![0.0f32; self.in_features * self.out_features];
        matmul_into(
            MatRef::transposed(input.as_slice(), self.in_features, batch),
            grad_out.as_slice(),
            self.out_features,
            &mut dw,
        );
        for (acc, &v) in self.grad_weight.as_mut_slice().iter_mut().zip(&dw) {
            *acc += v;
        }
        let gb = self.grad_bias.as_mut_slice();
        let go = grad_out.as_slice();
        for b in 0..batch {
            for (g, &v) in gb
                .iter_mut()
                .zip(&go[b * self.out_features..(b + 1) * self.out_features])
            {
                *g += v;
            }
        }
        Ok(())
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
        self.grad_weight = Tensor::zeros(&[self.in_features, self.out_features]);
        self.grad_bias = Tensor::zeros(&[self.out_features]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        // fix weights for a deterministic check
        layer.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        layer.params_mut()[1]
            .as_mut_slice()
            .copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = layer.forward(&x, true).unwrap();
        // y = [1*1 + 2*0 + 3*0 + 0.5, 1*0 + 2*1 + 3*0 - 0.5]
        assert_eq!(y.as_slice(), &[1.5, 1.5]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::zeros(&[1, 4]);
        assert!(matches!(
            layer.forward(&x, true),
            Err(NnError::BadInputShape { .. })
        ));
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(2, 2, &mut rng);
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn grads_accumulate_and_reset() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(2, 1, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let dy = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        layer.forward(&x, true).unwrap();
        layer.backward(&dy).unwrap();
        layer.forward(&x, true).unwrap();
        layer.backward(&dy).unwrap();
        // dW accumulates twice: 2 * [1, 2]^T
        assert_eq!(layer.grads()[0].as_slice(), &[2.0, 4.0]);
        assert_eq!(layer.grads()[1].as_slice(), &[2.0]);
        layer.zero_grads();
        assert_eq!(layer.grads()[0].as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = TensorRng::new(1);
        let layer = Dense::new(10, 5, &mut rng);
        assert_eq!(layer.param_count(), 55);
    }

    #[test]
    fn dx_matches_manual() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(2, 2, &mut rng);
        layer.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // W = [[1,2],[3,4]]
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        layer.forward(&x, true).unwrap();
        let dy = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let dx = layer.backward(&dy).unwrap();
        // dx = dy · W^T = [1*1 + 0*2, 1*3 + 0*4]
        assert_eq!(dx.as_slice(), &[1.0, 3.0]);
    }
}
