//! The [`Sequential`] model container and its flat parameter-vector view.

use tensor::Tensor;

use crate::layer::Layer;
use crate::{softmax_cross_entropy, NnError, Result};

/// An ordered stack of layers with a **flat parameter-vector view**.
///
/// The GuanYu protocol exchanges models and gradients as rank-1 tensors of
/// dimension `d` (the paper's parameter space `R^d`). `Sequential` is the
/// bridge: [`Sequential::param_vector`] serialises every layer parameter
/// into one flat tensor (in stable layer order), and
/// [`Sequential::set_param_vector`] writes such a vector back — this is what
/// a worker does with the median of the server models it receives.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count `d`.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    /// Back-propagates the loss gradient, accumulating parameter gradients
    /// in every layer that has parameters.
    ///
    /// The pass stops at the first layer with parameters: that layer
    /// forms no input gradient, and the layers before it (a leading
    /// [`crate::Flatten`], say) are not visited, since nothing reads what
    /// they would compute. [`Sequential::backward_to_input`] runs the
    /// whole chain and returns the gradient w.r.t. the network input.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (including backward-before-forward).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<()> {
        let Some(first) = self.layers.iter().position(|l| l.param_count() > 0) else {
            return Ok(());
        };
        let mut g = grad_output.clone();
        for layer in self.layers[first + 1..].iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        self.layers[first].backward_params(&g)
    }

    /// Runs the full backward pass, accumulating parameter gradients like
    /// [`Sequential::backward`], and returns the gradient w.r.t. the
    /// network input.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (including backward-before-forward).
    pub fn backward_to_input(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// One stochastic gradient, the way a worker computes it: loads
    /// `params`, clears the accumulators, runs forward and
    /// [`softmax_cross_entropy`] on the mini-batch `(x, labels)`,
    /// back-propagates, and returns [`Sequential::grad_vector`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] for a wrong-length
    /// `params`, and propagates layer and loss errors.
    pub fn gradient(&mut self, params: &Tensor, x: &Tensor, labels: &[usize]) -> Result<Tensor> {
        self.set_param_vector(params)?;
        self.zero_grads();
        let logits = self.forward(x, true)?;
        let (_, dlogits) = softmax_cross_entropy(&logits, labels)?;
        self.backward(&dlogits)?;
        Ok(self.grad_vector())
    }

    /// Resets every layer's gradient accumulators.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Concatenates all parameters into one flat rank-1 tensor of length
    /// [`Sequential::param_count`].
    pub fn param_vector(&self) -> Tensor {
        let mut flat = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for p in layer.params() {
                flat.extend_from_slice(p.as_slice());
            }
        }
        Tensor::from_flat(flat)
    }

    /// Writes a flat parameter vector back into the layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if `v` is not rank 1 of
    /// length [`Sequential::param_count`].
    pub fn set_param_vector(&mut self, v: &Tensor) -> Result<()> {
        let expected = self.param_count();
        if v.rank() != 1 || v.len() != expected {
            return Err(NnError::ParamLengthMismatch {
                expected,
                actual: v.len(),
            });
        }
        let mut offset = 0usize;
        let src = v.as_slice();
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                let n = p.len();
                p.as_mut_slice().copy_from_slice(&src[offset..offset + n]);
                offset += n;
            }
        }
        Ok(())
    }

    /// Concatenates all accumulated gradients into one flat tensor, aligned
    /// with [`Sequential::param_vector`].
    pub fn grad_vector(&self) -> Tensor {
        let mut flat = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for g in layer.grads() {
                flat.extend_from_slice(g.as_slice());
            }
        }
        Tensor::from_flat(flat)
    }

    /// Layer names, for debugging and model summaries.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .field("param_count", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use tensor::TensorRng;

    fn two_layer() -> Sequential {
        let mut rng = TensorRng::new(3);
        Sequential::new()
            .with(Dense::new(4, 8, &mut rng))
            .with(Relu::new())
            .with(Dense::new(8, 2, &mut rng))
    }

    #[test]
    fn param_count_sums_layers() {
        let m = two_layer();
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn forward_output_shape() {
        let mut m = two_layer();
        let x = Tensor::zeros(&[5, 4]);
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[5, 2]);
    }

    #[test]
    fn param_vector_roundtrip() {
        let mut m = two_layer();
        let v = m.param_vector();
        assert_eq!(v.len(), m.param_count());
        let doubled = v.scale(2.0);
        m.set_param_vector(&doubled).unwrap();
        assert_eq!(m.param_vector(), doubled);
    }

    #[test]
    fn set_param_vector_rejects_wrong_length() {
        let mut m = two_layer();
        let bad = Tensor::zeros(&[3]);
        assert!(matches!(
            m.set_param_vector(&bad),
            Err(NnError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn setting_params_changes_output() {
        let mut m = two_layer();
        let x = Tensor::ones(&[1, 4]);
        let y1 = m.forward(&x, true).unwrap();
        let zeroed = Tensor::zeros(&[m.param_count()]);
        m.set_param_vector(&zeroed).unwrap();
        let y2 = m.forward(&x, true).unwrap();
        assert_ne!(y1, y2);
        assert_eq!(y2.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_vector_aligned_with_params() {
        let mut m = two_layer();
        let x = Tensor::ones(&[2, 4]);
        let y = m.forward(&x, true).unwrap();
        m.backward(&Tensor::ones(y.dims())).unwrap();
        let g = m.grad_vector();
        assert_eq!(g.len(), m.param_count());
        assert!(g.norm() > 0.0);
        m.zero_grads();
        assert_eq!(m.grad_vector().norm(), 0.0);
    }

    /// A layer without parameters whose backward pass must not run.
    struct NoBackward;

    impl Layer for NoBackward {
        fn name(&self) -> String {
            "no-backward".to_owned()
        }
        fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(&mut self, _grad_out: &Tensor) -> Result<Tensor> {
            panic!("backward ran below the first layer with parameters")
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

    #[test]
    fn backward_stops_at_the_first_layer_with_params() {
        let mut rng = TensorRng::new(5);
        let mut m = Sequential::new()
            .with(NoBackward)
            .with(Dense::new(4, 8, &mut rng))
            .with(Relu::new())
            .with(Dense::new(8, 2, &mut rng));
        let x = rng.uniform_tensor(&[3, 4], -1.0, 1.0);
        let y = m.forward(&x, true).unwrap();
        m.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(m.grad_vector().norm() > 0.0);
    }

    #[test]
    fn backward_to_input_accumulates_the_same_gradients() {
        let mut m = two_layer();
        let x = TensorRng::new(6).uniform_tensor(&[3, 4], -1.0, 1.0);
        let y = m.forward(&x, true).unwrap();
        let dy = Tensor::ones(y.dims());
        m.backward(&dy).unwrap();
        let stopped = m.grad_vector();
        m.zero_grads();
        let dx = m.backward_to_input(&dy).unwrap();
        assert_eq!(dx.dims(), x.dims());
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m.grad_vector()), bits(&stopped));
    }

    #[test]
    fn gradient_is_one_worker_step() {
        let mut m = two_layer();
        let mut rng = TensorRng::new(7);
        let params = rng.uniform_tensor(&[m.param_count()], -1.0, 1.0);
        let x = rng.uniform_tensor(&[5, 4], -1.0, 1.0);
        let labels = [0, 1, 1, 0, 1];
        let g = m.gradient(&params, &x, &labels).unwrap();
        // The same steps by hand.
        m.set_param_vector(&params).unwrap();
        m.zero_grads();
        let logits = m.forward(&x, true).unwrap();
        let (_, dl) = softmax_cross_entropy(&logits, &labels).unwrap();
        m.backward(&dl).unwrap();
        assert_eq!(g, m.grad_vector());
        assert!(matches!(
            m.gradient(&Tensor::zeros(&[3]), &x, &labels),
            Err(NnError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn debug_lists_layers() {
        let m = two_layer();
        let s = format!("{m:?}");
        assert!(s.contains("dense(4x8)"));
        assert!(s.contains("relu"));
    }
}
