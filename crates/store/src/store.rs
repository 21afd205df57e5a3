//! The generation directory: numbered record files plus an
//! atomically-replaced manifest naming the latest good generation.
//!
//! Commit protocol (crash-safe by construction):
//!
//! 1. write `fleet-<g>.rec` (atomic tmp-then-rename, CRC-framed);
//! 2. replace `MANIFEST.json` (atomic) to point at generation `g` and
//!    pin its payload CRC.
//!
//! A crash between the two steps leaves the old manifest in place, so
//! recovery simply restores the previous generation. On load the
//! manifest is treated as untrusted input: the record it names must
//! exist, frame-verify, decode, carry the manifest's generation, and
//! hash to the manifest's pinned CRC — any disagreement is a typed
//! [`StoreError::ManifestMismatch`], never a silently-wrong restore.

use std::fs;
use std::path::{Path, PathBuf};

use gddr_ser::{json_struct, FromJson, Json, ToJson};

use crate::crc::crc32;
use crate::error::StoreError;
use crate::record::{decode_record, write_record};
use crate::snapshot::FleetSnapshot;
use crate::write_atomic;

/// File name of the generation manifest inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// How many committed generations `save` retains (the pinned one plus
/// history for post-mortems).
const KEEP_GENERATIONS: u64 = 3;

json_struct! {
    /// The commit pointer: which record file holds the latest good
    /// generation, and what its payload must hash to.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Manifest {
        /// Generation this manifest commits.
        pub generation: u64,
        /// Record file name (relative to the store directory).
        pub file: String,
        /// CRC-32 of the record payload, cross-checked on load.
        pub payload_crc: u32,
    }
}

/// A snapshot store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store directory.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        fs::create_dir_all(dir)?;
        Ok(Store {
            dir: dir.to_path_buf(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the record file holding `generation`.
    pub fn record_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("fleet-{generation}.rec"))
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_NAME)
    }

    /// Reads the current manifest.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingManifest`] if none exists,
    /// [`StoreError::Decode`] if it does not parse, [`StoreError::Io`]
    /// on other filesystem failures.
    pub fn manifest(&self) -> Result<Manifest, StoreError> {
        let text = match fs::read_to_string(self.manifest_path()) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::MissingManifest)
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        Ok(Manifest::from_json(&Json::parse(&text)?)?)
    }

    /// The generation the next `save` will commit: one past the
    /// current manifest, or 1 for a fresh store.
    ///
    /// # Errors
    ///
    /// Propagates manifest read failures other than a missing
    /// manifest (a fresh store is not an error here).
    pub fn next_generation(&self) -> Result<u64, StoreError> {
        match self.manifest() {
            Ok(m) => Ok(m.generation + 1),
            Err(StoreError::MissingManifest) => Ok(1),
            Err(e) => Err(e),
        }
    }

    /// Commits `snapshot` as its declared generation: record first,
    /// manifest second, then prunes superseded record files. Returns
    /// the record size in bytes (frame header included).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure. A crash
    /// between the record write and the manifest replace leaves the
    /// previous generation committed.
    pub fn save(&self, snapshot: &FleetSnapshot) -> Result<u64, StoreError> {
        let payload = snapshot.to_json().to_string().into_bytes();
        let generation = snapshot.generation;
        let file = format!("fleet-{generation}.rec");
        write_record(&self.dir.join(&file), &payload)?;
        let manifest = Manifest {
            generation,
            file,
            payload_crc: crc32(&payload),
        };
        write_atomic(
            &self.manifest_path(),
            manifest.to_json().to_string().as_bytes(),
        )?;
        self.prune(generation);
        Ok((payload.len() + crate::record::RECORD_HEADER_LEN) as u64)
    }

    /// Removes record files older than the retention window. Best
    /// effort: pruning failures are ignored (stale records are
    /// harmless; the manifest is the single source of truth).
    fn prune(&self, committed: u64) {
        let floor = committed.saturating_sub(KEEP_GENERATIONS - 1);
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(gen_text) = name
                .strip_prefix("fleet-")
                .and_then(|rest| rest.strip_suffix(".rec"))
            else {
                continue;
            };
            if let Ok(generation) = gen_text.parse::<u64>() {
                if generation < floor {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }

    /// Loads the latest committed snapshot, verifying the whole chain:
    /// manifest → record frame → payload CRC pin → declared
    /// generation.
    ///
    /// # Errors
    ///
    /// Every corruption class is a distinct typed error; callers
    /// (`ShardRouter::recover_from`) turn any of them into a clean
    /// cold start.
    pub fn load(&self) -> Result<FleetSnapshot, StoreError> {
        let manifest = self.manifest()?;
        let record_path = self.dir.join(&manifest.file);
        let data = match fs::read(&record_path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::ManifestMismatch(format!(
                    "manifest names {} but the file is missing",
                    manifest.file
                )))
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        let payload = decode_record(&data)?;
        let found = crc32(&payload);
        if found != manifest.payload_crc {
            return Err(StoreError::ManifestMismatch(format!(
                "manifest pins payload CRC {:#010x} but {} hashes to {found:#010x}",
                manifest.payload_crc, manifest.file
            )));
        }
        let text = std::str::from_utf8(&payload)
            .map_err(|e| StoreError::Decode(format!("payload is not UTF-8: {e}")))?;
        let snapshot = FleetSnapshot::from_json(&Json::parse(text)?)?;
        if snapshot.generation != manifest.generation {
            return Err(StoreError::ManifestMismatch(format!(
                "manifest commits generation {} but the record declares {}",
                manifest.generation, snapshot.generation
            )));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ShardSnapshot;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("gddr-store-dir-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap()
    }

    fn snap(generation: u64, tick: u64) -> FleetSnapshot {
        FleetSnapshot {
            generation,
            tick,
            shards: vec![ShardSnapshot {
                shard: 0,
                name: "core".into(),
                state: Json::obj([("tick", tick.to_json())]),
            }],
        }
    }

    #[test]
    fn save_then_load_round_trips_and_generations_advance() {
        let store = tmp_store("roundtrip");
        assert!(matches!(store.load(), Err(StoreError::MissingManifest)));
        assert_eq!(store.next_generation().unwrap(), 1);
        store.save(&snap(1, 10)).unwrap();
        assert_eq!(store.load().unwrap(), snap(1, 10));
        assert_eq!(store.next_generation().unwrap(), 2);
        store.save(&snap(2, 20)).unwrap();
        assert_eq!(store.load().unwrap(), snap(2, 20));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn crash_between_record_and_manifest_restores_previous_generation() {
        let store = tmp_store("crashwindow");
        store.save(&snap(1, 10)).unwrap();
        // Simulate a crash after step 1 of the commit for generation 2:
        // the record landed, the manifest did not.
        let payload = snap(2, 20).to_json().to_string().into_bytes();
        write_record(&store.record_path(2), &payload).unwrap();
        assert_eq!(
            store.load().unwrap(),
            snap(1, 10),
            "old manifest still rules"
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn lying_manifests_are_typed_errors() {
        // Points at a file that does not exist.
        let store = tmp_store("lie-missing");
        store.save(&snap(1, 10)).unwrap();
        fs::remove_file(store.record_path(1)).unwrap();
        assert!(matches!(
            store.load().unwrap_err(),
            StoreError::ManifestMismatch(_)
        ));
        let _ = fs::remove_dir_all(store.dir());

        // Claims the wrong generation for an intact record.
        let store = tmp_store("lie-generation");
        store.save(&snap(1, 10)).unwrap();
        let mut manifest = store.manifest().unwrap();
        manifest.generation = 9;
        manifest.file = "fleet-1.rec".into();
        write_atomic(
            &store.manifest_path(),
            manifest.to_json().to_string().as_bytes(),
        )
        .unwrap();
        assert!(matches!(
            store.load().unwrap_err(),
            StoreError::ManifestMismatch(_)
        ));
        let _ = fs::remove_dir_all(store.dir());

        // Pins the wrong CRC for an intact record.
        let store = tmp_store("lie-crc");
        store.save(&snap(1, 10)).unwrap();
        let mut manifest = store.manifest().unwrap();
        manifest.payload_crc ^= 0xFFFF;
        write_atomic(
            &store.manifest_path(),
            manifest.to_json().to_string().as_bytes(),
        )
        .unwrap();
        assert!(matches!(
            store.load().unwrap_err(),
            StoreError::ManifestMismatch(_)
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_records_are_detected_through_load() {
        let store = tmp_store("corrupt");
        store.save(&snap(1, 10)).unwrap();
        let path = store.record_path(1);
        let good = fs::read(&path).unwrap();
        // Torn write: every truncation prefix fails typed.
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(store.load().is_err(), "cut at {cut} accepted");
        }
        // Bit flip in the payload region.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            store.load().unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
        // Restore the good bytes and the store works again.
        fs::write(&path, &good).unwrap();
        assert_eq!(store.load().unwrap(), snap(1, 10));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn garbage_manifest_is_a_decode_error() {
        let store = tmp_store("garbage-manifest");
        fs::write(store.manifest_path(), b"not json at all").unwrap();
        assert!(matches!(store.load().unwrap_err(), StoreError::Decode(_)));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn pruning_keeps_the_retention_window() {
        let store = tmp_store("prune");
        for g in 1..=6u64 {
            store.save(&snap(g, g * 10)).unwrap();
        }
        assert!(!store.record_path(3).exists(), "generation 3 pruned");
        assert!(store.record_path(4).exists());
        assert!(store.record_path(5).exists());
        assert!(store.record_path(6).exists());
        assert_eq!(store.load().unwrap(), snap(6, 60));
        let _ = fs::remove_dir_all(store.dir());
    }
}
