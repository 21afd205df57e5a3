//! The fleet snapshot payload: what one generation of durable state
//! actually contains.
//!
//! A [`FleetSnapshot`] is a list of per-shard captures. Each
//! [`ShardSnapshot`] carries the shard id and name plus an **opaque
//! JSON state tree** — the serving layer owns the domain encoding
//! (LastGood routing, breaker, health, failover log, restart budgets,
//! SLO histogram), and this crate stays hermetic (std + `gddr-ser`
//! only) by never interpreting it. Integrity is the framing's job
//! ([`crate::decode_record`]); shape validation happens here; semantic
//! validation (does the routing fit the graph?) happens in the
//! restorer.

use gddr_ser::{json_struct, FromJson, Json, ToJson};

use crate::error::StoreError;
use crate::record::{decode_record, encode_record};

json_struct! {
    /// Durable state captured from one shard's replica set.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ShardSnapshot {
        /// Stable shard index within the fleet.
        pub shard: u64,
        /// Shard name (recovery matches by name, not position).
        pub name: String,
        /// Serving-layer state tree, opaque to the store.
        pub state: Json,
    }
}

json_struct! {
    /// One generation of durable fleet state.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FleetSnapshot {
        /// Monotonic snapshot generation (the store's commit counter).
        pub generation: u64,
        /// The logical tick at which the snapshot was taken.
        pub tick: u64,
        /// Per-shard captures, in shard order.
        pub shards: Vec<ShardSnapshot>,
    }
}

impl FleetSnapshot {
    /// Frames the snapshot as record bytes (JSON payload inside the
    /// CRC/length frame).
    pub fn to_record_bytes(&self) -> Vec<u8> {
        encode_record(self.to_json().to_string().as_bytes())
    }

    /// Unframes and decodes a snapshot from record bytes.
    ///
    /// # Errors
    ///
    /// Any framing error from [`decode_record`], or
    /// [`StoreError::Decode`] when the CRC-intact payload is not a
    /// well-formed snapshot.
    pub fn from_record_bytes(data: &[u8]) -> Result<Self, StoreError> {
        let payload = decode_record(data)?;
        let text = std::str::from_utf8(&payload)
            .map_err(|e| StoreError::Decode(format!("payload is not UTF-8: {e}")))?;
        Ok(Self::from_json(&Json::parse(text)?)?)
    }

    /// Looks up a shard capture by name.
    pub fn shard_named(&self, name: &str) -> Option<&ShardSnapshot> {
        self.shards.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetSnapshot {
        FleetSnapshot {
            generation: 7,
            tick: 112,
            shards: vec![
                ShardSnapshot {
                    shard: 0,
                    name: "eu-west".into(),
                    state: Json::obj([("epoch", 112u64.to_json()), ("rung", "L".to_json())]),
                },
                ShardSnapshot {
                    shard: 1,
                    name: "us-east".into(),
                    state: Json::Null,
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_to_a_fixed_point() {
        let snap = sample();
        let bytes = snap.to_record_bytes();
        let back = FleetSnapshot::from_record_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // Re-encoding the decoded snapshot is byte-identical: the
        // format has a fixed point, which the fuzz target relies on.
        assert_eq!(back.to_record_bytes(), bytes);
    }

    #[test]
    fn shard_lookup_is_by_name() {
        let snap = sample();
        assert_eq!(snap.shard_named("us-east").unwrap().shard, 1);
        assert!(snap.shard_named("mars").is_none());
    }

    #[test]
    fn intact_frame_with_wrong_shape_is_a_decode_error() {
        // Valid CRC, valid JSON, but not a snapshot object.
        let framed = encode_record(b"[1,2,3]");
        assert!(matches!(
            FleetSnapshot::from_record_bytes(&framed).unwrap_err(),
            StoreError::Decode(_)
        ));
        // Valid CRC, invalid JSON.
        let framed = encode_record(b"{broken");
        assert!(matches!(
            FleetSnapshot::from_record_bytes(&framed).unwrap_err(),
            StoreError::Decode(_)
        ));
        // Valid CRC, non-UTF-8 payload.
        let framed = encode_record(&[0xFF, 0xFE, 0x80]);
        assert!(matches!(
            FleetSnapshot::from_record_bytes(&framed).unwrap_err(),
            StoreError::Decode(_)
        ));
    }

    #[test]
    fn lossy_integers_are_decode_errors() {
        // A saturating cast would restore generation 0 or tick 2 here.
        for payload in [
            r#"{"generation":-1,"tick":2,"shards":[]}"#,
            r#"{"generation":1,"tick":2.5,"shards":[]}"#,
            r#"{"generation":9007199254740994,"tick":2,"shards":[]}"#,
        ] {
            let framed = encode_record(payload.as_bytes());
            assert!(
                matches!(
                    FleetSnapshot::from_record_bytes(&framed).unwrap_err(),
                    StoreError::Decode(_)
                ),
                "{payload}"
            );
        }
    }
}
