//! First-order optimisers: SGD and Adam.
//!
//! The paper trains with PPO2, whose reference implementation uses Adam;
//! both optimisers operate on the accumulated gradients in a
//! [`ParamStore`] and zero them after stepping.

use gddr_ser::{json_struct, JsonError};

use crate::matrix::Matrix;
use crate::params::ParamStore;

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Creates an SGD optimiser.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update and zeroes the gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        if self.velocity.len() != store.len() {
            self.velocity = store
                .iter()
                .map(|(_, _, v)| {
                    let (r, c) = v.shape();
                    Matrix::zeros(r, c)
                })
                .collect();
        }
        for i in 0..store.len() {
            let id = crate::ParamId(i);
            let g = store.grad(id).clone();
            let vel = &mut self.velocity[i];
            *vel = &vel.scale(self.momentum) + &g.scale(-self.lr);
            let update = vel.clone();
            store.value_mut(id).add_assign(&update);
        }
        store.zero_grads();
    }
}

json_struct! {
    /// Adam (Kingma & Ba) with bias correction. Its JSON form is the
    /// full optimiser state (hyperparameters, step count, first/second
    /// moments) for checkpointing.
    #[derive(Debug, Clone)]
    pub struct Adam {
        lr: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        t: u64,
        m: Vec<Matrix>,
        v: Vec<Matrix>,
    }
    validate = valid_state
}

/// Rejects decoded state with invalid hyperparameters or moment
/// vectors that disagree in count or shape.
fn valid_state(adam: &Adam) -> Result<(), JsonError> {
    let Adam {
        lr,
        beta1,
        beta2,
        m,
        v,
        ..
    } = adam;
    let lr_valid = lr.is_finite() && *lr > 0.0;
    if !lr_valid || !(0.0..1.0).contains(beta1) || !(0.0..1.0).contains(beta2) {
        return Err(JsonError("invalid Adam hyperparameters".to_string()));
    }
    if m.len() != v.len() {
        return Err(JsonError(format!(
            "Adam moment count mismatch: {} first vs {} second",
            m.len(),
            v.len()
        )));
    }
    for (i, (mi, vi)) in m.iter().zip(v).enumerate() {
        if mi.shape() != vi.shape() {
            return Err(JsonError(format!(
                "Adam moment {i}: shape {:?} vs {:?}",
                mi.shape(),
                vi.shape()
            )));
        }
    }
    Ok(())
}

impl Adam {
    /// Creates an Adam optimiser with the standard β = (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimiser with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or betas are outside `[0, 1)`.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Overrides the learning rate (e.g. for schedules).
    pub fn set_lr(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update and zeroes the gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        if self.m.len() != store.len() {
            let zeros: Vec<Matrix> = store
                .iter()
                .map(|(_, _, v)| {
                    let (r, c) = v.shape();
                    Matrix::zeros(r, c)
                })
                .collect();
            self.m = zeros.clone();
            self.v = zeros;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..store.len() {
            let id = crate::ParamId(i);
            let g = store.grad(id).clone();
            self.m[i] = &self.m[i].scale(self.beta1) + &g.scale(1.0 - self.beta1);
            let g2 = &g * &g;
            self.v[i] = &self.v[i].scale(self.beta2) + &g2.scale(1.0 - self.beta2);
            let mhat = self.m[i].scale(1.0 / bc1);
            let vhat = self.v[i].scale(1.0 / bc2);
            let update = mhat.zip(&vhat, |m, v| -self.lr * m / (v.sqrt() + self.eps));
            store.value_mut(id).add_assign(&update);
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, ParamStore, Tape};
    use gddr_ser::{FromJson, Json, ToJson};

    /// Minimise (w - 3)^2 and check convergence to 3.
    fn quadratic_descent(mut stepper: impl FnMut(&mut ParamStore), iters: usize) -> f64 {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..iters {
            let mut tape = Tape::new();
            let w = tape.param(&store, id);
            let c = tape.constant(Matrix::from_vec(1, 1, vec![3.0]));
            let d = tape.sub(w, c);
            let sq = tape.mul(d, d);
            let loss = tape.sum_all(sq);
            store.zero_grads();
            tape.backward(loss, &mut store);
            stepper(&mut store);
        }
        store.value(id).get(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        let w = quadratic_descent(|s| opt.step(s), 100);
        assert!((w - 3.0).abs() < 1e-6, "w = {w}");
    }

    #[test]
    fn sgd_with_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9);
        let w = quadratic_descent(|s| opt.step(s), 200);
        assert!((w - 3.0).abs() < 1e-4, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = quadratic_descent(|s| opt.step(s), 300);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::from_vec(1, 1, vec![1.0]));
        store.accumulate_grad(id, &Matrix::from_vec(1, 1, vec![5.0]));
        let mut opt = Adam::new(0.01);
        opt.step(&mut store);
        assert_eq!(store.grad(id).sum(), 0.0);
    }

    #[test]
    fn adam_lr_accessors() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.lr(), 0.01);
        opt.set_lr(0.001);
        assert_eq!(opt.lr(), 0.001);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_lr() {
        Adam::new(0.0);
    }

    /// Checkpointed optimiser state must reproduce the exact same
    /// update trajectory as the original.
    #[test]
    fn adam_state_round_trip_is_bit_identical() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::from_vec(1, 2, vec![0.1, -0.2]));
        let mut opt = Adam::new(0.05);
        for k in 0..5 {
            store.accumulate_grad(id, &Matrix::from_vec(1, 2, vec![0.3 * k as f64, -0.1]));
            opt.step(&mut store);
        }
        let text = opt.to_json().to_string();
        let restored = Adam::from_json(&Json::parse(&text).unwrap()).unwrap();
        let mut store2 = store.clone();
        let mut opt2 = restored;
        // One more identical step through each: values must match bitwise.
        store.accumulate_grad(id, &Matrix::from_vec(1, 2, vec![0.7, 0.7]));
        store2.accumulate_grad(id, &Matrix::from_vec(1, 2, vec![0.7, 0.7]));
        opt.step(&mut store);
        opt2.step(&mut store2);
        assert_eq!(store.value(id).as_slice(), store2.value(id).as_slice());
        assert_eq!(opt.lr(), opt2.lr());
    }

    #[test]
    fn adam_state_rejects_inconsistent_moments() {
        let json = Json::parse(
            r#"{"lr":0.1,"beta1":0.9,"beta2":0.999,"eps":1e-8,"t":1,
                "m":[{"rows":1,"cols":1,"data":[0]}],"v":[]}"#,
        )
        .unwrap();
        assert!(Adam::from_json(&json).is_err());
    }
}
