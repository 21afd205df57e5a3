//! Training checkpoints: full trainer state serialised via `gddr-ser`
//! with atomic tmp-file-then-rename writes, so a killed run can resume
//! bit-identically ([`crate::Ppo::train_resilient`]).
//!
//! A checkpoint captures everything the training loop threads through
//! an update boundary: policy/value parameters, Adam moments, the
//! environment's episode state, the RNG stream, the in-flight episode
//! reward, an optional observation normaliser, and the full
//! [`TrainingLog`] so far. RNG state words are encoded as decimal
//! strings, since JSON numbers hold integers exactly only up to 2^53.

use std::fmt;
use std::fs;
use std::path::Path;

use gddr_ser::{json_struct, u64_strings, FromJson, Json, JsonError, ToJson};

use crate::ppo::TrainingLog;
use crate::running_stat::RunningMeanStd;

/// Format version written into every checkpoint.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Errors from checkpoint persistence.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid checkpoint, or its contents do not fit
    /// the trainer it is being restored into.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failure: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Corrupt(e.to_string())
    }
}

json_struct! {
    /// A full snapshot of trainer state at an update boundary.
    #[derive(Debug, Clone)]
    pub struct Checkpoint {
        /// Format version ([`CHECKPOINT_VERSION`]).
        pub version: u64 as current_version,
        /// Environment steps taken when the snapshot was written.
        pub step: usize,
        /// Reward accumulated in the episode in flight.
        pub episode_reward: f64,
        /// Learning-rate scale applied by quarantine rollbacks (1.0 until
        /// the first rollback).
        pub lr_scale: f64,
        /// xoshiro256++ state of the training RNG stream.
        pub rng: [u64; 4] as u64_strings,
        /// Environment episode state
        /// ([`crate::env::ResumableEnv::state_json`]).
        pub env_state: Json,
        /// Policy/value parameters (`ParamStore::values_to_json`).
        pub params: Json,
        /// Optimiser state (`Adam` as JSON).
        pub optimiser: Json,
        /// Observation/reward normaliser, when the trainer uses one.
        pub normaliser: Option<RunningMeanStd>,
        /// The training log up to the snapshot.
        pub log: TrainingLog,
    }
}

/// The `version` field; decoding stops at any version but
/// [`CHECKPOINT_VERSION`] before it reads the rest.
mod current_version {
    use super::CHECKPOINT_VERSION;
    use gddr_ser::{FromJson, Json, JsonError, ToJson};

    pub fn to_json(version: &u64) -> Json {
        version.to_json()
    }

    pub fn from_json(json: &Json) -> Result<u64, JsonError> {
        let version = u64::from_json(json)?;
        if version != CHECKPOINT_VERSION {
            return Err(JsonError(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        Ok(version)
    }
}

impl Checkpoint {
    /// Writes the checkpoint atomically via
    /// [`gddr_store::write_atomic`] (serialise to `<path>.tmp`, then
    /// rename over `path`), so a crash mid-write never leaves a
    /// truncated checkpoint behind. The bytes on disk are the raw
    /// `gddr-ser` JSON — not the store's CRC-framed record format —
    /// so existing checkpoints stay byte-identical and loadable.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        gddr_store::write_atomic(path, self.to_json().to_string().as_bytes()).map_err(|e| match e {
            gddr_store::StoreError::Io(io) => CheckpointError::Io(io),
            other => CheckpointError::Corrupt(other.to_string()),
        })
    }

    /// Reads a checkpoint written by [`Checkpoint::save`].
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors or corrupt/incompatible contents.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = fs::read_to_string(path)?;
        let json = Json::parse(&text)?;
        Ok(Checkpoint::from_json(&json)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppo::UpdateStats;

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            step: 256,
            episode_reward: -3.5,
            lr_scale: 0.5,
            // Words above 2^53 exercise the lossless string encoding.
            rng: [u64::MAX, 1 << 60, 12345, (1 << 53) + 1],
            env_state: Json::obj([("x", Json::Num(0.25))]),
            params: Json::Arr(vec![]),
            optimiser: Json::Null,
            normaliser: None,
            log: TrainingLog {
                episodes: vec![(8, -2.0)],
                updates: vec![UpdateStats {
                    step: 128,
                    policy_loss: -0.5,
                    value_loss: 0.25,
                    entropy: 1.0,
                    approx_kl: 0.125,
                    clip_fraction: 0.0,
                    grad_norm: 1.5,
                }],
                total_steps: 256,
            },
        }
    }

    #[test]
    fn json_round_trip_preserves_rng_state_exactly() {
        let ckpt = sample();
        let text = ckpt.to_json().to_string();
        let back = Checkpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.rng, ckpt.rng);
        assert_eq!(back.step, ckpt.step);
        assert_eq!(back.episode_reward, ckpt.episode_reward);
        assert_eq!(back.lr_scale, ckpt.lr_scale);
        assert_eq!(back.log.episodes, ckpt.log.episodes);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn save_is_atomic_and_loads_back() {
        let dir = std::env::temp_dir().join("gddr-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        // No tmp file is left behind.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::PathBuf::from(tmp).exists());
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.rng, ckpt.rng);
        // Overwriting an existing checkpoint also works (rename
        // replaces on POSIX).
        ckpt.save(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_unsupported_version() {
        let mut ckpt = sample();
        ckpt.version = 99;
        let text = ckpt.to_json().to_string();
        assert!(Checkpoint::from_json(&Json::parse(&text).unwrap()).is_err());
    }

    #[test]
    fn load_rejects_truncated_file() {
        let dir = std::env::temp_dir().join("gddr-ckpt-trunc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let text = sample().to_json().to_string();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
