//! The [`Layer`] trait.

use tensor::Tensor;

use crate::Result;

/// A differentiable layer with owned parameters and gradient accumulators.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. [`Layer::forward`] consumes an activation and caches whatever it needs
///    for the backward pass (inputs, masks, column buffers);
/// 2. [`Layer::backward`] consumes the gradient w.r.t. the layer's output,
///    **accumulates** gradients into the layer's parameter-gradient buffers
///    and returns the gradient w.r.t. the layer's input
///    ([`Layer::backward_params`] does the same minus the input gradient);
/// 3. [`Layer::zero_grads`] resets the accumulators between steps.
///
/// Calling `backward` without a preceding `forward` is an error
/// ([`crate::NnError::BackwardBeforeForward`]).
///
/// Parameters are exposed as ordered lists so [`crate::Sequential`] can
/// present the whole model as one flat vector — the unit of exchange in the
/// GuanYu protocol.
pub trait Layer: Send {
    /// Human-readable layer name (used in error messages).
    fn name(&self) -> String;

    /// Computes the layer output. `train` selects training-time behaviour
    /// (kept for future layers like dropout; current layers ignore it).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BadInputShape`] for unsupported inputs.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Back-propagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient w.r.t. the forward input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when called without
    /// a cached forward pass, and shape errors for inconsistent gradients.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Back-propagates `grad_out` into the parameter gradients only, with
    /// no gradient w.r.t. the input: what [`crate::Sequential::backward`]
    /// asks of the first layer that has parameters, since nothing reads
    /// that layer's input gradient. Accumulates exactly what
    /// [`Layer::backward`] would.
    ///
    /// The default runs [`Layer::backward`] and drops its result; layers
    /// whose input gradient costs real work override it.
    ///
    /// # Errors
    ///
    /// As for [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward(grad_out).map(drop)
    }

    /// The layer's parameters, in a stable order.
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable access to the parameters, in the same order as
    /// [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Accumulated parameter gradients, aligned with [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Resets all gradient accumulators to zero.
    fn zero_grads(&mut self);

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}
