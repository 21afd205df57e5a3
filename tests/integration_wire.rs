//! Byte-identity of every committed wire format.
//!
//! Each file under `tests/fixtures/wire/` was written by an earlier
//! build of the workspace. Decoding a fixture and encoding it again
//! must reproduce its bytes exactly, so any change to a field name,
//! field order, number format or string escape fails here.
//!
//! - `events.jsonl`: every telemetry event kind, with hostile strings;
//! - `checkpoint.json`: a PPO checkpoint from `resume_check`;
//! - `fleet-3.rec` + `MANIFEST.json`: one committed store generation;
//! - `bench_stats.json`: one bench `Stats` record (encode-only: the
//!   harness only ever writes it);
//! - `fig7_small.json` / `fig8_small.json`: `fig7_learning_curves` and
//!   `fig8_generalisation` results at tiny budgets.
//!
//! The committed `results/fig7.json` and `fig8.json` predate the
//! current `UpdateStats` (their `updates` hold `[step, policy_loss,
//! value_loss]` triples), so they are checked piecewise: every
//! `EvalResult` and episode curve in them re-encodes byte-identically.

use std::collections::BTreeSet;
use std::path::PathBuf;

use gddr_bench::harness::Stats;
use gddr_core::eval::EvalResult;
use gddr_core::experiment::{FixedGraphResult, GeneralisationResult};
use gddr_rl::Checkpoint;
use gddr_ser::{FromJson, Json, ToJson};
use gddr_store::{crc32, decode_record, FleetSnapshot, Manifest};
use gddr_telemetry::parse_jsonl;

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn fixture(name: &str) -> Vec<u8> {
    let path = repo_file(&format!("tests/fixtures/wire/{name}"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn fixture_text(name: &str) -> String {
    String::from_utf8(fixture(name)).expect("fixture is UTF-8")
}

/// Decodes `text` as `T` and asserts the re-encoding is `text` again.
fn assert_round_trip<T: FromJson + ToJson>(label: &str, text: &str) -> T {
    let value = T::from_json(&Json::parse(text).expect("fixture parses"))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let again = value.to_json().to_string();
    assert!(
        again == text,
        "{label}: re-encoding differs from the fixture"
    );
    value
}

#[test]
fn event_stream_covers_every_kind_and_re_encodes_byte_identically() {
    let text = fixture_text("events.jsonl");
    let events = parse_jsonl(&text).unwrap();
    let again: String = events
        .iter()
        .map(|e| e.to_json().to_string() + "\n")
        .collect();
    assert!(again == text, "event stream re-encoding differs");
    let kinds: BTreeSet<&str> = events.iter().map(|e| e.kind()).collect();
    assert_eq!(kinds.len(), 22, "fixture covers {kinds:?}");
}

#[test]
fn checkpoint_re_encodes_byte_identically() {
    let ckpt: Checkpoint = assert_round_trip("checkpoint", &fixture_text("checkpoint.json"));
    assert_eq!(ckpt.step, 32);
}

#[test]
fn store_record_and_manifest_re_encode_byte_identically() {
    let record = fixture("fleet-3.rec");
    let snapshot = FleetSnapshot::from_record_bytes(&record).unwrap();
    assert!(
        snapshot.to_record_bytes() == record,
        "record re-encoding differs"
    );

    let manifest: Manifest = assert_round_trip("manifest", &fixture_text("MANIFEST.json"));
    assert_eq!(manifest.generation, snapshot.generation);
    assert_eq!(manifest.file, "fleet-3.rec");
    assert_eq!(
        manifest.payload_crc,
        crc32(&decode_record(&record).unwrap())
    );
}

#[test]
fn bench_stats_encode_byte_identically() {
    let text = fixture_text("bench_stats.json");
    let json = Json::parse(&text).unwrap();
    let num = |key: &str| f64::from_json(json.field(key).unwrap()).unwrap();
    let stats = Stats {
        name: String::from_json(json.field("name").unwrap()).unwrap(),
        samples: usize::from_json(json.field("samples").unwrap()).unwrap(),
        iters_per_sample: usize::from_json(json.field("iters_per_sample").unwrap()).unwrap(),
        min_ns: num("min_ns"),
        mean_ns: num("mean_ns"),
        median_ns: num("median_ns"),
        p95_ns: num("p95_ns"),
    };
    assert!(
        stats.to_json().to_string() == text,
        "stats encoding differs"
    );
}

#[test]
fn figure_results_re_encode_byte_identically() {
    assert_round_trip::<FixedGraphResult>("fig7", &fixture_text("fig7_small.json"));
    assert_round_trip::<GeneralisationResult>("fig8", &fixture_text("fig8_small.json"));
}

#[test]
fn committed_figure_results_re_encode_piecewise() {
    for (file, evals, logs) in [
        (
            "results/fig7.json",
            &["mlp.eval", "gnn.eval", "shortest_path", "prediction"][..],
            &["mlp.log", "gnn.log"][..],
        ),
        (
            "results/fig8.json",
            &[
                "gnn_different.policy",
                "gnn_different.shortest_path",
                "gnn_modified.policy",
                "gnn_modified.shortest_path",
                "iterative_different.policy",
                "iterative_different.shortest_path",
                "iterative_modified.policy",
                "iterative_modified.shortest_path",
            ][..],
            &["gnn_log", "iterative_log"][..],
        ),
    ] {
        let text = std::fs::read_to_string(repo_file(file)).unwrap();
        let json = Json::parse(&text).unwrap();
        assert!(json.to_string() == text, "{file}: JSON re-encoding differs");
        let at = |path: &str| {
            path.split('.')
                .fold(&json, |node, key| node.field(key).unwrap())
                .to_string()
        };
        for path in evals {
            assert_round_trip::<EvalResult>(&format!("{file} {path}"), &at(path));
        }
        for path in logs {
            assert_round_trip::<Vec<(usize, f64)>>(
                &format!("{file} {path}.episodes"),
                &at(&format!("{path}.episodes")),
            );
        }
    }
}
