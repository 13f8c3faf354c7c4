//! What training produced: test loss of the honest finishers' models and
//! how far apart those models drifted.

use data::Dataset;
use nn::{softmax_cross_entropy, Sequential};
use tensor::{Tensor, TensorRng};

/// Model quality at the end of a run.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Test cross-entropy of the initial model every server starts from.
    pub initial_loss: f64,
    /// Mean test cross-entropy of the honest finishers' final models.
    pub final_loss: f64,
    /// Largest pairwise L2 distance between honest finishers' final
    /// parameter vectors (the drift the contraction exchange bounds).
    pub honest_spread: f64,
    /// Whether every final parameter is finite.
    pub finite: bool,
}

fn test_loss(model: &mut Sequential, test: &Dataset) -> f64 {
    let logits = model.forward(test.features(), false).expect("test forward");
    let (loss, _) = softmax_cross_entropy(&logits, test.labels()).expect("test loss");
    f64::from(loss)
}

/// Measures `finals` against the initial model the engines derive from
/// `seed` (`TensorRng::new(seed).fork(0xA11)`).
pub fn measure(
    build: impl Fn(&mut TensorRng) -> Sequential,
    seed: u64,
    test: &Dataset,
    finals: &[Tensor],
) -> Quality {
    let mut model = build(&mut TensorRng::new(seed).fork(0xA11));
    let initial_loss = test_loss(&mut model, test);
    let finite = !finals.is_empty() && finals.iter().all(Tensor::is_finite);
    let mut final_loss = f64::NAN;
    let mut honest_spread = 0.0f64;
    if finite {
        final_loss = finals
            .iter()
            .map(|p| {
                model
                    .set_param_vector(p)
                    .expect("final params fit the model");
                test_loss(&mut model, test)
            })
            .sum::<f64>()
            / finals.len() as f64;
        for (i, a) in finals.iter().enumerate() {
            for b in &finals[i + 1..] {
                let d2: f64 = a
                    .as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .map(|(x, y)| f64::from(x - y).powi(2))
                    .sum();
                honest_spread = honest_spread.max(d2.sqrt());
            }
        }
    }
    Quality {
        initial_loss,
        final_loss,
        honest_spread,
        finite,
    }
}

/// Prints `q` with the run's other figures.
pub fn note(r: &mut crate::report::Report, q: &Quality) {
    r.note("final_loss", q.final_loss, "nats");
    r.note("initial_loss", q.initial_loss, "nats");
    r.note("honest_spread", q.honest_spread, "L2");
}
