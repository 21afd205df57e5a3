//! Proximal Policy Optimisation (clipped surrogate), the algorithm the
//! paper trains with ("we decided to use Proximal Policy Optimisation
//! (PPO) in the form of the PPO2 implementation from the
//! stable-baselines library", §VIII-C).

use std::path::PathBuf;

use gddr_rng::rngs::StdRng;
use gddr_rng::Rng;
use gddr_ser::{json_struct, FromJson, ToJson};

use gddr_nn::optim::Adam;
use gddr_nn::{Matrix, Tape};

use crate::buffer::{RolloutBuffer, Transition};
use crate::checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
use crate::env::{Env, ResumableEnv};
use crate::policy::Policy;

/// PPO hyperparameters (defaults follow PPO2's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoConfig {
    /// Environment steps per rollout collection.
    pub n_steps: usize,
    /// Optimisation epochs over each rollout.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch_size: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub gae_lambda: f64,
    /// Clipping radius ε.
    pub clip_range: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Entropy-bonus coefficient.
    pub ent_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f64,
    /// Standardise advantages per rollout.
    pub normalise_advantages: bool,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            n_steps: 128,
            epochs: 4,
            minibatch_size: 32,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_range: 0.2,
            learning_rate: 3e-4,
            vf_coef: 0.5,
            ent_coef: 0.001,
            max_grad_norm: 0.5,
            normalise_advantages: true,
        }
    }
}

json_struct! {
    /// Per-update optimisation diagnostics, averaged over the update's
    /// minibatches.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct UpdateStats {
        /// Environment step count when the update finished.
        pub step: usize,
        /// Mean clipped-surrogate policy loss.
        pub policy_loss: f64,
        /// Mean squared-error value loss.
        pub value_loss: f64,
        /// Mean policy entropy.
        pub entropy: f64,
        /// Mean approximate KL divergence to the rollout policy,
        /// `E[old_logp − new_logp]` — the PPO2 early-stopping signal.
        pub approx_kl: f64,
        /// Fraction of samples whose probability ratio was clipped,
        /// `E[1{|ratio − 1| > ε}]`.
        pub clip_fraction: f64,
        /// Mean global gradient norm before clipping.
        pub grad_norm: f64,
    }
}

json_struct! {
    /// Training diagnostics.
    #[derive(Debug, Clone, Default)]
    pub struct TrainingLog {
        /// `(env_step, episode_total_reward)` per finished episode — the
        /// data behind the paper's Fig. 7 learning curves.
        pub episodes: Vec<(usize, f64)>,
        /// Optimisation diagnostics per update.
        pub updates: Vec<UpdateStats>,
        /// Total environment steps taken.
        pub total_steps: usize,
    }
}

impl TrainingLog {
    /// Mean episode reward over the final `k` episodes (all if fewer).
    pub fn recent_mean_reward(&self, k: usize) -> f64 {
        if self.episodes.is_empty() {
            return f64::NAN;
        }
        let tail = &self.episodes[self.episodes.len().saturating_sub(k)..];
        tail.iter().map(|(_, r)| r).sum::<f64>() / tail.len() as f64
    }

    /// Smoothed learning curve: mean reward over windows of `window`
    /// consecutive episodes, as `(step_at_window_end, mean_reward)`.
    pub fn smoothed_curve(&self, window: usize) -> Vec<(usize, f64)> {
        assert!(window > 0, "window must be positive");
        self.episodes
            .chunks(window)
            .map(|c| {
                let step = c.last().expect("chunks are non-empty").0;
                let mean = c.iter().map(|(_, r)| r).sum::<f64>() / c.len() as f64;
                (step, mean)
            })
            .collect()
    }
}

/// The PPO trainer. Owns the optimiser state; borrow the environment
/// and policy per [`Ppo::train`] call so they can be inspected between
/// rounds.
#[derive(Debug)]
pub struct Ppo {
    config: PpoConfig,
    optimiser: Adam,
}

impl Ppo {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical hyperparameters (zero steps/minibatch,
    /// non-positive learning rate).
    pub fn new(config: PpoConfig) -> Self {
        assert!(config.n_steps > 0, "n_steps must be positive");
        assert!(config.minibatch_size > 0, "minibatch_size must be positive");
        assert!(config.epochs > 0, "epochs must be positive");
        let optimiser = Adam::new(config.learning_rate);
        Ppo { config, optimiser }
    }

    /// The active configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// The optimiser's current learning rate (differs from
    /// `config().learning_rate` after quarantine rollbacks).
    pub fn learning_rate(&self) -> f64 {
        self.optimiser.lr()
    }

    /// Runs PPO for at least `total_steps` environment steps, appending
    /// diagnostics to `log`.
    ///
    /// The same `log` can be passed across multiple calls to continue a
    /// curve (e.g. for evaluation snapshots between rounds).
    pub fn train<E, P>(
        &mut self,
        env: &mut E,
        policy: &mut P,
        total_steps: usize,
        rng: &mut StdRng,
        log: &mut TrainingLog,
    ) where
        E: Env,
        P: Policy<Obs = E::Obs>,
    {
        let mut obs = env.reset(rng);
        let mut episode_reward = 0.0;
        let start_step = log.total_steps;
        let mut buffer: RolloutBuffer<E::Obs> = RolloutBuffer::new();

        while log.total_steps - start_step < total_steps {
            self.collect_rollout(
                env,
                policy,
                &mut obs,
                &mut episode_reward,
                rng,
                log,
                &mut buffer,
            );
            let (stats, _skipped) = self.run_update(policy, &buffer, rng, log.total_steps);
            emit_update_telemetry(&stats);
            log.updates.push(stats);
        }
    }

    /// Collects one `n_steps` rollout into `buffer` and computes GAE.
    #[allow(clippy::too_many_arguments)]
    fn collect_rollout<E, P>(
        &self,
        env: &mut E,
        policy: &P,
        obs: &mut E::Obs,
        episode_reward: &mut f64,
        rng: &mut StdRng,
        log: &mut TrainingLog,
        buffer: &mut RolloutBuffer<E::Obs>,
    ) where
        E: Env,
        P: Policy<Obs = E::Obs>,
    {
        {
            let _span = gddr_telemetry::span("ppo.rollout");
            buffer.clear();
            for _ in 0..self.config.n_steps {
                let sample = policy.act(obs, rng);
                let step = env.step(&sample.action, rng);
                *episode_reward += step.reward;
                buffer.push(Transition {
                    obs: obs.clone(),
                    action: sample.action,
                    reward: step.reward,
                    done: step.done,
                    value: sample.value,
                    log_prob: sample.log_prob,
                });
                log.total_steps += 1;
                if step.done {
                    log.episodes.push((log.total_steps, *episode_reward));
                    *episode_reward = 0.0;
                    *obs = env.reset(rng);
                } else {
                    *obs = step.obs;
                }
            }
            let last_value = policy.act(obs, rng).value;
            buffer.compute_gae(
                last_value,
                self.config.gamma,
                self.config.gae_lambda,
                self.config.normalise_advantages,
            );
        }
        gddr_telemetry::counter_add("ppo.env_steps", self.config.n_steps as u64);
    }

    /// Runs one full optimisation pass (all epochs/minibatches) over
    /// `buffer`. Minibatches with non-finite losses or gradients are
    /// skipped rather than applied; the second return value is the
    /// number of skipped minibatches.
    fn run_update<P: Policy>(
        &mut self,
        policy: &mut P,
        buffer: &RolloutBuffer<P::Obs>,
        rng: &mut StdRng,
        total_steps: usize,
    ) -> (UpdateStats, usize) {
        let _span = gddr_telemetry::span("ppo.update");
        let n = buffer.len();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut acc = UpdateStats::default();
        let mut batches = 0.0;
        let mut skipped = 0usize;
        for _ in 0..self.config.epochs {
            // Fisher-Yates shuffle.
            for i in (1..n).rev() {
                indices.swap(i, rng.gen_range(0..=i));
            }
            for chunk in indices.chunks(self.config.minibatch_size) {
                let (b, applied) = self.update_minibatch(policy, buffer, chunk);
                if applied {
                    acc.policy_loss += b.policy_loss;
                    acc.value_loss += b.value_loss;
                    acc.entropy += b.entropy;
                    acc.approx_kl += b.approx_kl;
                    acc.clip_fraction += b.clip_fraction;
                    acc.grad_norm += b.grad_norm;
                    batches += 1.0;
                } else {
                    skipped += 1;
                }
            }
        }
        let stats = if batches > 0.0 {
            UpdateStats {
                step: total_steps,
                policy_loss: acc.policy_loss / batches,
                value_loss: acc.value_loss / batches,
                entropy: acc.entropy / batches,
                approx_kl: acc.approx_kl / batches,
                clip_fraction: acc.clip_fraction / batches,
                grad_norm: acc.grad_norm / batches,
            }
        } else {
            UpdateStats {
                step: total_steps,
                ..UpdateStats::default()
            }
        };
        (stats, skipped)
    }

    /// One minibatch update; returns the batch's diagnostics (with
    /// `step` left at zero — the caller stamps it) and whether the
    /// optimiser step was applied. NaN quarantine: if the losses or the
    /// gradient norm are non-finite the step is skipped and the
    /// gradients are discarded, leaving parameters and optimiser
    /// moments untouched.
    fn update_minibatch<P: Policy>(
        &mut self,
        policy: &mut P,
        buffer: &RolloutBuffer<P::Obs>,
        indices: &[usize],
    ) -> (UpdateStats, bool) {
        let mut tape = Tape::new();
        let transitions = buffer.transitions();
        let advantages = buffer.advantages();
        let returns = buffer.returns();
        let k = indices.len() as f64;
        let eps = self.config.clip_range;

        let mut surrogate_sum = None;
        let mut vloss_sum = None;
        let mut entropy_sum = None;
        let mut kl_sum = 0.0;
        let mut clipped = 0.0;
        for &i in indices {
            let t = &transitions[i];
            let eval = policy.evaluate(&mut tape, &t.obs, &t.action);
            // ratio = exp(logp - old_logp)
            let old_lp = tape.constant(Matrix::from_vec(1, 1, vec![t.log_prob]));
            let diff = tape.sub(eval.log_prob, old_lp);
            let ratio = tape.exp(diff);
            // The tape is eager, so reading intermediate values for
            // diagnostics costs a lookup, not a forward pass.
            kl_sum += t.log_prob - tape.value(eval.log_prob).get(0, 0);
            if (tape.value(ratio).get(0, 0) - 1.0).abs() > eps {
                clipped += 1.0;
            }
            let adv = tape.constant(Matrix::from_vec(1, 1, vec![advantages[i]]));
            let surr1 = tape.mul(ratio, adv);
            let clipped = tape.clamp(ratio, 1.0 - eps, 1.0 + eps);
            let surr2 = tape.mul(clipped, adv);
            let surr = tape.min_elem(surr1, surr2);
            // value loss (v - R)^2
            let ret = tape.constant(Matrix::from_vec(1, 1, vec![returns[i]]));
            let vdiff = tape.sub(eval.value, ret);
            let vsq = tape.mul(vdiff, vdiff);
            surrogate_sum = Some(match surrogate_sum {
                None => surr,
                Some(s) => tape.add(s, surr),
            });
            vloss_sum = Some(match vloss_sum {
                None => vsq,
                Some(s) => tape.add(s, vsq),
            });
            entropy_sum = Some(match entropy_sum {
                None => eval.entropy,
                Some(s) => tape.add(s, eval.entropy),
            });
        }
        let surrogate = tape.scale(surrogate_sum.expect("non-empty minibatch"), 1.0 / k);
        let vloss = tape.scale(vloss_sum.expect("non-empty minibatch"), 1.0 / k);
        let entropy = tape.scale(entropy_sum.expect("non-empty minibatch"), 1.0 / k);

        // loss = -surrogate + vf_coef * vloss - ent_coef * entropy
        let neg_surr = tape.scale(surrogate, -1.0);
        let v_term = tape.scale(vloss, self.config.vf_coef);
        let e_term = tape.scale(entropy, -self.config.ent_coef);
        let partial = tape.add(neg_surr, v_term);
        let loss = tape.add(partial, e_term);

        let policy_loss = -tape.value(surrogate).get(0, 0);
        let value_loss = tape.value(vloss).get(0, 0);
        let entropy_mean = tape.value(entropy).get(0, 0);

        let store = policy.params_mut();
        store.zero_grads();
        {
            let _span = gddr_telemetry::span("ppo.backward");
            tape.backward(loss, store);
        }
        let grad_norm = store.grad_norm();
        let finite = policy_loss.is_finite()
            && value_loss.is_finite()
            && entropy_mean.is_finite()
            && grad_norm.is_finite();
        if finite {
            store.clip_grad_norm(self.config.max_grad_norm);
            self.optimiser.step(store);
        } else {
            store.zero_grads();
        }
        let stats = UpdateStats {
            step: 0,
            policy_loss,
            value_loss,
            entropy: entropy_mean,
            approx_kl: kl_sum / k,
            clip_fraction: clipped / k,
            grad_norm,
        };
        (stats, finite)
    }
}

/// Streams one update's diagnostics to telemetry (gauges + counter).
fn emit_update_telemetry(stats: &UpdateStats) {
    if gddr_telemetry::is_enabled() {
        gddr_telemetry::counter_add("ppo.updates", 1);
        gddr_telemetry::gauge_set("ppo.policy_loss", stats.policy_loss);
        gddr_telemetry::gauge_set("ppo.value_loss", stats.value_loss);
        gddr_telemetry::gauge_set("ppo.entropy", stats.entropy);
        gddr_telemetry::gauge_set("ppo.approx_kl", stats.approx_kl);
        gddr_telemetry::gauge_set("ppo.clip_fraction", stats.clip_fraction);
        gddr_telemetry::gauge_set("ppo.grad_norm", stats.grad_norm);
    }
}

/// Fault-tolerance policy for [`Ppo::train_resilient`].
#[derive(Debug, Clone)]
pub struct FaultTolerance {
    /// Where to persist checkpoints. `None` keeps only the in-memory
    /// snapshot (rollback still works; a process kill loses progress).
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every this many completed updates (0 = only
    /// the initial snapshot).
    pub checkpoint_every_updates: usize,
    /// Consecutive non-finite updates (K) before rolling back to the
    /// last good checkpoint.
    pub max_consecutive_bad: usize,
    /// Learning-rate multiplier applied on every rollback.
    pub lr_backoff: f64,
    /// Give up after this many rollbacks within one call.
    pub max_rollbacks: usize,
    /// Stop cleanly after this many completed updates — the "kill"
    /// hook used by resume tests and the CI kill-and-resume smoke.
    pub halt_after_updates: Option<usize>,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance {
            checkpoint_path: None,
            checkpoint_every_updates: 10,
            max_consecutive_bad: 3,
            lr_backoff: 0.5,
            max_rollbacks: 8,
            halt_after_updates: None,
        }
    }
}

/// What happened during one [`Ppo::train_resilient`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// Updates whose optimiser steps were applied in full.
    pub good_updates: usize,
    /// Updates discarded because at least one minibatch went
    /// non-finite.
    pub skipped_updates: usize,
    /// Minibatches skipped by the NaN quarantine.
    pub skipped_minibatches: usize,
    /// Rollbacks to the last good checkpoint.
    pub rollbacks: usize,
    /// Checkpoints persisted to disk.
    pub checkpoints_written: usize,
    /// True if the run stopped at `halt_after_updates`.
    pub halted: bool,
    /// Set when the run gave up (rollback budget exhausted).
    pub aborted: Option<String>,
}

impl Ppo {
    /// Fault-tolerant training: [`Ppo::train`] plus periodic
    /// checkpointing, NaN quarantine with rollback, and kill/resume.
    ///
    /// Unlike [`Ppo::train`], `target_steps` is an **absolute** target:
    /// training continues until `log.total_steps >= target_steps`,
    /// which makes a resumed run finish exactly where the uninterrupted
    /// run would.
    ///
    /// With `resume = Some(checkpoint)`, all trainer state (parameters,
    /// optimiser moments, RNG stream, environment episode state, the
    /// log itself) is restored from the checkpoint first; `env`,
    /// `policy`, `rng` and `log` are overwritten. The continuation is
    /// bit-identical to a run that was never interrupted.
    ///
    /// # Errors
    ///
    /// Fails if a checkpoint cannot be written/restored or the rollback
    /// budget is exhausted (reported via [`ResilienceReport::aborted`],
    /// not an `Err`, so partial progress is observable).
    #[allow(clippy::too_many_arguments)]
    pub fn train_resilient<E, P>(
        &mut self,
        env: &mut E,
        policy: &mut P,
        target_steps: usize,
        rng: &mut StdRng,
        log: &mut TrainingLog,
        ft: &FaultTolerance,
        resume: Option<&Checkpoint>,
    ) -> Result<ResilienceReport, CheckpointError>
    where
        E: ResumableEnv,
        P: Policy<Obs = E::Obs>,
    {
        let mut report = ResilienceReport::default();
        let mut lr_scale = 1.0;
        let mut episode_reward = 0.0;
        let mut obs;
        if let Some(ckpt) = resume {
            self.restore(env, policy, rng, log, ckpt)?;
            lr_scale = ckpt.lr_scale;
            episode_reward = ckpt.episode_reward;
            obs = env.current_obs();
        } else {
            obs = env.reset(rng);
        }
        // An initial snapshot guarantees rollback is always possible,
        // even before the first periodic checkpoint.
        let mut last_good = self.snapshot(env, policy, rng, log, episode_reward, lr_scale);
        let mut buffer: RolloutBuffer<E::Obs> = RolloutBuffer::new();
        let mut consecutive_bad = 0usize;
        let mut updates_since_ckpt = 0usize;
        let mut updates_this_call = 0usize;

        while log.total_steps < target_steps {
            self.collect_rollout(
                env,
                policy,
                &mut obs,
                &mut episode_reward,
                rng,
                log,
                &mut buffer,
            );
            let (stats, skipped) = self.run_update(policy, &buffer, rng, log.total_steps);
            report.skipped_minibatches += skipped;
            if skipped > 0 {
                // Quarantined update: nothing reaches the log; decide
                // whether to keep trying or roll back.
                report.skipped_updates += 1;
                consecutive_bad += 1;
                gddr_telemetry::counter_add("ppo.nonfinite_updates", 1);
                if consecutive_bad >= ft.max_consecutive_bad {
                    if report.rollbacks >= ft.max_rollbacks {
                        report.aborted = Some(format!(
                            "rollback budget exhausted after {} rollbacks",
                            report.rollbacks
                        ));
                        break;
                    }
                    report.rollbacks += 1;
                    lr_scale *= ft.lr_backoff;
                    self.restore(env, policy, rng, log, &last_good)?;
                    self.optimiser.set_lr(self.config.learning_rate * lr_scale);
                    episode_reward = last_good.episode_reward;
                    obs = env.current_obs();
                    consecutive_bad = 0;
                    gddr_telemetry::emit(|| gddr_telemetry::Event::Rollback {
                        step: log.total_steps as u64,
                        reason: "non-finite updates".to_string(),
                        lr_scale,
                    });
                }
                continue;
            }
            consecutive_bad = 0;
            emit_update_telemetry(&stats);
            log.updates.push(stats);
            updates_this_call += 1;
            updates_since_ckpt += 1;
            if ft.checkpoint_every_updates > 0 && updates_since_ckpt >= ft.checkpoint_every_updates
            {
                last_good = self.snapshot(env, policy, rng, log, episode_reward, lr_scale);
                if let Some(path) = &ft.checkpoint_path {
                    last_good.save(path)?;
                    report.checkpoints_written += 1;
                    gddr_telemetry::emit(|| gddr_telemetry::Event::Checkpoint {
                        step: log.total_steps as u64,
                        path: path.to_string_lossy().into_owned(),
                    });
                }
                updates_since_ckpt = 0;
            }
            if let Some(n) = ft.halt_after_updates {
                if updates_this_call >= n {
                    report.halted = true;
                    break;
                }
            }
        }
        report.good_updates = updates_this_call;
        Ok(report)
    }

    /// Captures the complete trainer state at an update boundary.
    fn snapshot<E, P>(
        &self,
        env: &E,
        policy: &P,
        rng: &StdRng,
        log: &TrainingLog,
        episode_reward: f64,
        lr_scale: f64,
    ) -> Checkpoint
    where
        E: ResumableEnv,
        P: Policy<Obs = E::Obs>,
    {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            step: log.total_steps,
            episode_reward,
            lr_scale,
            rng: rng.state(),
            env_state: env.state_json(),
            params: policy.params().values_to_json(),
            optimiser: self.optimiser.to_json(),
            normaliser: None,
            log: log.clone(),
        }
    }

    /// Restores trainer, environment, RNG and log from a checkpoint.
    fn restore<E, P>(
        &mut self,
        env: &mut E,
        policy: &mut P,
        rng: &mut StdRng,
        log: &mut TrainingLog,
        ckpt: &Checkpoint,
    ) -> Result<(), CheckpointError>
    where
        E: ResumableEnv,
        P: Policy<Obs = E::Obs>,
    {
        if ckpt.rng == [0; 4] {
            return Err(CheckpointError::Corrupt(
                "all-zero rng state is invalid".into(),
            ));
        }
        policy
            .params_mut()
            .values_from_json(&ckpt.params)
            .map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        self.optimiser = Adam::from_json(&ckpt.optimiser)?;
        env.restore_state(&ckpt.env_state)?;
        *rng = StdRng::from_state(ckpt.rng);
        *log = ckpt.log.clone();
        Ok(())
    }
}

/// Evaluates a policy deterministically for `episodes` episodes and
/// returns the mean episode reward.
pub fn evaluate_policy<E, P>(
    env: &mut E,
    policy: &P,
    episodes: usize,
    max_steps_per_episode: usize,
    rng: &mut StdRng,
) -> f64
where
    E: Env,
    P: Policy<Obs = E::Obs>,
{
    let mut total = 0.0;
    for _ in 0..episodes {
        let mut obs = env.reset(rng);
        for _ in 0..max_steps_per_episode {
            let action = policy.act_greedy(&obs);
            let step = env.step(&action, rng);
            total += step.reward;
            if step.done {
                break;
            }
            obs = step.obs;
        }
    }
    total / episodes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::ChaseEnv;
    use crate::policy::MlpGaussianPolicy;
    use gddr_rng::SeedableRng;
    use gddr_ser::Json;

    #[test]
    fn ppo_learns_chase_env() {
        // Short-budget PPO at lr 3e-3 is seed-sensitive; this seed converges.
        let mut rng = StdRng::seed_from_u64(0);
        let mut env = ChaseEnv::new(0.5, 8);
        let mut policy = MlpGaussianPolicy::new(1, 1, &[16], -0.7, &mut rng);
        let config = PpoConfig {
            n_steps: 128,
            epochs: 4,
            minibatch_size: 32,
            learning_rate: 3e-3,
            ..Default::default()
        };
        let mut ppo = Ppo::new(config);
        let mut log = TrainingLog::default();

        let before = evaluate_policy(&mut env, &policy, 10, 8, &mut rng);
        ppo.train(&mut env, &mut policy, 6_000, &mut rng, &mut log);
        let after = evaluate_policy(&mut env, &policy, 10, 8, &mut rng);
        assert!(
            after > before,
            "no improvement: before {before}, after {after}"
        );
        // A competent policy keeps the squared error small.
        assert!(after > -0.8, "final performance too weak: {after}");
        assert!(!log.episodes.is_empty());
        assert!(log.total_steps >= 6_000);
    }

    #[test]
    fn update_stats_are_recorded_and_finite() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut env = ChaseEnv::new(0.0, 4);
        let mut policy = MlpGaussianPolicy::new(1, 1, &[4], -0.5, &mut rng);
        let mut ppo = Ppo::new(PpoConfig {
            n_steps: 16,
            minibatch_size: 8,
            epochs: 1,
            ..Default::default()
        });
        let mut log = TrainingLog::default();
        ppo.train(&mut env, &mut policy, 32, &mut rng, &mut log);
        assert_eq!(log.updates.len(), 2);
        for u in &log.updates {
            assert!(u.step > 0);
            assert!(u.policy_loss.is_finite());
            assert!(u.value_loss.is_finite());
            // A Gaussian policy's differential entropy is finite and,
            // at log_std −0.5, positive.
            assert!(u.entropy > 0.0);
            assert!(u.approx_kl.is_finite());
            assert!((0.0..=1.0).contains(&u.clip_fraction));
            assert!(u.grad_norm > 0.0, "backward produced no gradient");
        }
    }

    #[test]
    fn training_log_round_trip_is_byte_stable() {
        let log = TrainingLog {
            episodes: vec![(10, -1.5), (20, -0.25)],
            updates: vec![UpdateStats {
                step: 32,
                policy_loss: -0.125,
                value_loss: 0.5,
                entropy: 1.25,
                approx_kl: 0.0625,
                clip_fraction: 0.25,
                grad_norm: 2.5,
            }],
            total_steps: 32,
        };
        let text = log.to_json().to_string();
        let back = TrainingLog::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.episodes, log.episodes);
        assert_eq!(back.updates, log.updates);
        assert_eq!(back.total_steps, log.total_steps);
        // Byte-stable: re-serialising the parsed log reproduces the text.
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn training_log_helpers() {
        let mut log = TrainingLog::default();
        for i in 0..10 {
            log.episodes.push((i * 10, i as f64));
        }
        assert!((log.recent_mean_reward(4) - 7.5).abs() < 1e-12);
        let curve = log.smoothed_curve(5);
        assert_eq!(curve.len(), 2);
        assert!((curve[0].1 - 2.0).abs() < 1e-12);
        assert_eq!(curve[1].0, 90);
    }

    #[test]
    fn log_continues_across_train_calls() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut env = ChaseEnv::new(0.0, 4);
        let mut policy = MlpGaussianPolicy::new(1, 1, &[4], -0.5, &mut rng);
        let mut ppo = Ppo::new(PpoConfig {
            n_steps: 16,
            minibatch_size: 8,
            epochs: 1,
            ..Default::default()
        });
        let mut log = TrainingLog::default();
        ppo.train(&mut env, &mut policy, 32, &mut rng, &mut log);
        let steps_after_first = log.total_steps;
        ppo.train(&mut env, &mut policy, 32, &mut rng, &mut log);
        assert!(log.total_steps >= steps_after_first + 32);
    }

    #[test]
    #[should_panic(expected = "n_steps")]
    fn rejects_zero_steps() {
        Ppo::new(PpoConfig {
            n_steps: 0,
            ..Default::default()
        });
    }

    /// Wraps an MLP policy and replaces the differentiable
    /// log-probability with NaN for a window of `evaluate` calls,
    /// simulating a numerical blow-up inside the update.
    struct PoisonPolicy {
        inner: MlpGaussianPolicy,
        evals: std::cell::Cell<usize>,
        poison: std::ops::Range<usize>,
    }

    impl Policy for PoisonPolicy {
        type Obs = Vec<f64>;

        fn act(&self, obs: &Vec<f64>, rng: &mut StdRng) -> crate::ActionSample {
            self.inner.act(obs, rng)
        }

        fn act_greedy(&self, obs: &Vec<f64>) -> Vec<f64> {
            self.inner.act_greedy(obs)
        }

        fn evaluate(&self, tape: &mut Tape, obs: &Vec<f64>, action: &[f64]) -> crate::Evaluation {
            let mut eval = self.inner.evaluate(tape, obs, action);
            let i = self.evals.get();
            self.evals.set(i + 1);
            if self.poison.contains(&i) {
                eval.log_prob = tape.constant(Matrix::from_vec(1, 1, vec![f64::NAN]));
            }
            eval
        }

        fn params(&self) -> &gddr_nn::ParamStore {
            self.inner.params()
        }

        fn params_mut(&mut self) -> &mut gddr_nn::ParamStore {
            self.inner.params_mut()
        }
    }

    fn small_ft_config() -> PpoConfig {
        PpoConfig {
            n_steps: 16,
            minibatch_size: 8,
            epochs: 1,
            learning_rate: 3e-3,
            ..Default::default()
        }
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        let dir = std::env::temp_dir().join("gddr-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let target = 160; // 10 updates of 16 steps

        // Uninterrupted reference run (no disk checkpoints needed).
        let mut rng = StdRng::seed_from_u64(7);
        let mut env = ChaseEnv::new(0.5, 8);
        let mut policy = MlpGaussianPolicy::new(1, 1, &[8], -0.7, &mut rng);
        let mut ppo = Ppo::new(small_ft_config());
        let mut log = TrainingLog::default();
        ppo.train_resilient(
            &mut env,
            &mut policy,
            target,
            &mut rng,
            &mut log,
            &FaultTolerance::default(),
            None,
        )
        .unwrap();
        let reference = log.to_json().to_string();

        // Killed run: same seed, checkpoint every 2 updates, halt
        // after 5 (simulating a mid-training process kill).
        let mut rng = StdRng::seed_from_u64(7);
        let mut env = ChaseEnv::new(0.5, 8);
        let mut policy = MlpGaussianPolicy::new(1, 1, &[8], -0.7, &mut rng);
        let mut ppo = Ppo::new(small_ft_config());
        let mut log = TrainingLog::default();
        let ft = FaultTolerance {
            checkpoint_path: Some(path.clone()),
            checkpoint_every_updates: 2,
            halt_after_updates: Some(5),
            ..Default::default()
        };
        let report = ppo
            .train_resilient(&mut env, &mut policy, target, &mut rng, &mut log, &ft, None)
            .unwrap();
        assert!(report.halted);
        assert!(report.checkpoints_written >= 2);

        // Resume in entirely fresh objects — nothing carries over but
        // the checkpoint file.
        let ckpt = Checkpoint::load(&path).unwrap();
        let mut rng = StdRng::seed_from_u64(999); // overwritten by restore
        let mut env = ChaseEnv::new(0.0, 8); // overwritten by restore
        let mut policy = MlpGaussianPolicy::new(1, 1, &[8], -0.7, &mut rng);
        let mut ppo = Ppo::new(small_ft_config());
        let mut log = TrainingLog::default();
        let ft = FaultTolerance {
            checkpoint_path: None,
            checkpoint_every_updates: 2,
            ..Default::default()
        };
        ppo.train_resilient(
            &mut env,
            &mut policy,
            target,
            &mut rng,
            &mut log,
            &ft,
            Some(&ckpt),
        )
        .unwrap();
        assert_eq!(
            log.to_json().to_string(),
            reference,
            "resumed TrainingLog differs from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_skips_nonfinite_update_and_training_continues() {
        let mut rng = StdRng::seed_from_u64(11);
        let inner = MlpGaussianPolicy::new(1, 1, &[4], -0.5, &mut rng);
        // 16 evaluate calls per update (16 transitions × 1 epoch):
        // poison exactly the second update.
        let mut policy = PoisonPolicy {
            inner,
            evals: std::cell::Cell::new(0),
            poison: 16..32,
        };
        let mut env = ChaseEnv::new(0.0, 4);
        let mut ppo = Ppo::new(small_ft_config());
        let mut log = TrainingLog::default();
        let report = ppo
            .train_resilient(
                &mut env,
                &mut policy,
                64,
                &mut rng,
                &mut log,
                &FaultTolerance::default(),
                None,
            )
            .unwrap();
        assert_eq!(report.skipped_updates, 1);
        assert_eq!(report.good_updates, 3);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(log.updates.len(), 3);
        // Quarantine never lets a NaN reach the parameters.
        for (_, _, value) in policy.params().iter() {
            assert!(value.is_finite());
        }
        // Below K consecutive bad updates the learning rate is untouched.
        assert_eq!(ppo.learning_rate(), 3e-3);
    }

    #[test]
    fn repeated_nonfinite_updates_roll_back_with_halved_lr() {
        let mut rng = StdRng::seed_from_u64(13);
        let inner = MlpGaussianPolicy::new(1, 1, &[4], -0.5, &mut rng);
        // Poison evaluate calls 16..48: the second update fails, and its
        // post-rollback replay fails again before training recovers.
        let mut policy = PoisonPolicy {
            inner,
            evals: std::cell::Cell::new(0),
            poison: 16..48,
        };
        let mut env = ChaseEnv::new(0.0, 4);
        let mut ppo = Ppo::new(small_ft_config());
        let mut log = TrainingLog::default();
        let ft = FaultTolerance {
            max_consecutive_bad: 1,
            checkpoint_every_updates: 1,
            ..Default::default()
        };
        let report = ppo
            .train_resilient(&mut env, &mut policy, 48, &mut rng, &mut log, &ft, None)
            .unwrap();
        assert_eq!(report.rollbacks, 2);
        assert!(report.aborted.is_none());
        // Two rollbacks at the default 0.5 backoff quarter the rate.
        assert!((ppo.learning_rate() - 3e-3 * 0.25).abs() < 1e-12);
        assert_eq!(log.total_steps, 48);
        for (_, _, value) in policy.params().iter() {
            assert!(value.is_finite());
        }
    }

    #[test]
    fn rollback_budget_exhaustion_aborts_cleanly() {
        let mut rng = StdRng::seed_from_u64(17);
        let inner = MlpGaussianPolicy::new(1, 1, &[4], -0.5, &mut rng);
        // Poison everything after the first update: training can never
        // recover and must give up instead of spinning forever.
        let mut policy = PoisonPolicy {
            inner,
            evals: std::cell::Cell::new(0),
            poison: 16..usize::MAX,
        };
        let mut env = ChaseEnv::new(0.0, 4);
        let mut ppo = Ppo::new(small_ft_config());
        let mut log = TrainingLog::default();
        let ft = FaultTolerance {
            max_consecutive_bad: 1,
            max_rollbacks: 2,
            checkpoint_every_updates: 1,
            ..Default::default()
        };
        let report = ppo
            .train_resilient(&mut env, &mut policy, 480, &mut rng, &mut log, &ft, None)
            .unwrap();
        assert!(report.aborted.is_some());
        assert_eq!(report.rollbacks, 2);
        for (_, _, value) in policy.params().iter() {
            assert!(value.is_finite());
        }
    }

    #[test]
    fn evaluate_policy_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(2);
        let policy = MlpGaussianPolicy::new(1, 1, &[4], -0.5, &mut rng);
        let mut env = ChaseEnv::new(0.3, 5);
        let mut rng_a = StdRng::seed_from_u64(9);
        let a = evaluate_policy(&mut env, &policy, 3, 5, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(9);
        let b = evaluate_policy(&mut env, &policy, 3, 5, &mut rng_b);
        assert_eq!(a, b);
    }
}
