//! The three GDDR policy architectures (paper §VII).

mod gnn;
mod gnn_iterative;
mod mlp;

pub use gnn::{GnnPolicy, GnnPolicyConfig};
pub use gnn_iterative::GnnIterativePolicy;
pub use mlp::MlpPolicy;

use crate::obs::DdrObs;

/// Greedy inference over several observations at once.
///
/// The contract is strict: `act_greedy_batch(obs)` must be
/// **bit-identical** to calling [`gddr_rl::Policy::act_greedy`] on each
/// observation in order. The serving fleet coalesces requests into one
/// batched forward pass and relies on batch membership being
/// unobservable in the answers.
///
/// Greedy inference needs no gradients, so [`GnnPolicy`] serves it
/// tape-free (`EncodeProcessDecode::eval` in `gddr-gnn`): no autodiff
/// tape, no action distribution, and none of the network outputs the
/// greedy action does not read.
pub trait BatchGreedy {
    /// Greedy actions for every observation, in order.
    fn act_greedy_batch(&self, obs: &[DdrObs]) -> Vec<Vec<f64>>;
}
