//! JSON export for experiment-result artifacts.
//!
//! The heavy lifting lives in the `gddr-ser` crate (the hermetic
//! replacement for `serde`); this module keeps the `to_json` /
//! [`JsonError`] names the figure binaries call so they read the same
//! as before the migration.

pub use gddr_ser::JsonError;
use gddr_ser::ToJson;

/// Serialises any [`ToJson`] value to a compact JSON string.
///
/// # Errors
///
/// Kept fallible for call-site compatibility; serialisation itself
/// cannot fail (non-finite floats panic in `gddr-ser` instead).
pub fn to_json<T: ToJson>(value: &T) -> Result<String, JsonError> {
    Ok(value.to_json().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_ser::json_struct;

    json_struct! {
        struct Sample {
            name: String,
            values: Vec<f64>,
            pair: (usize, f64),
            flag: bool,
            missing: Option<u32>,
            present: Option<u32>,
        }
    }

    #[test]
    fn struct_round_trip_shape() {
        let s = Sample {
            name: "fig6".into(),
            values: vec![1.0, 2.5],
            pair: (3, 4.5),
            flag: true,
            missing: None,
            present: Some(7),
        };
        let json = to_json(&s).unwrap();
        assert_eq!(
            json,
            r#"{"name":"fig6","values":[1,2.5],"pair":[3,4.5],"flag":true,"missing":null,"present":7}"#
        );
    }

    #[test]
    fn string_escaping() {
        let json = to_json(&"a\"b\\c\nd").unwrap();
        assert_eq!(json, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn graph_serialises_with_full_structure() {
        let g = gddr_net::topology::zoo::cesnet();
        let json = to_json(&g).unwrap();
        assert!(json.contains("\"name\":\"Cesnet\""));
        assert!(json.contains("\"capacity\":10000"));
        // Every edge appears (src/dst node-id fields).
        assert_eq!(json.matches("\"src\":").count(), g.num_edges());
    }

    #[test]
    fn demand_matrix_serialises() {
        let mut dm = gddr_traffic::DemandMatrix::zeros(2);
        dm.set(0, 1, 3.5);
        let json = to_json(&dm).unwrap();
        assert!(json.contains("3.5"));
    }

    #[test]
    fn training_log_serialises() {
        let mut log = gddr_rl::TrainingLog::default();
        log.episodes.push((10, -1.5));
        log.total_steps = 10;
        let json = to_json(&log).unwrap();
        assert!(json.contains("\"episodes\":[[10,-1.5]]"));
        assert!(json.contains("\"total_steps\":10"));
    }
}
