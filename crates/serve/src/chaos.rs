//! Per-tag behaviour tests for the `controller`, `replication` and
//! `recovery` scenarios of [`crate::scenario`]: each named drill passes,
//! answers every request and replays bit-identically under its seed,
//! and each tag selects only its own scenarios.

mod tests {
    use crate::scenario::{run, scenario_seed, select, spec, ScenarioOutcome, Tag};
    use crate::ServeError;

    /// Runs `name`, which must carry `tag`, twice at `seed`.
    fn replay(tag: Tag, name: &str, seed: u64, requests: usize) -> [ScenarioOutcome; 2] {
        let spec = select(tag.name())
            .unwrap()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} is not a {} scenario", tag.name()));
        [(); 2].map(|_| run(&spec, seed, requests).unwrap())
    }

    /// Unknown names are errors, `tag` selects none of `others`, and a
    /// budget below `name`'s minimum is raised to it.
    fn assert_tag_selects_only_its_own(tag: Tag, others: &[&str], name: &str) {
        assert!(matches!(select("nope"), Err(ServeError::Config(_))));
        let tagged = select(tag.name()).unwrap();
        assert!(tagged.iter().all(|s| s.tag == tag));
        for other in others {
            assert!(spec(other).is_some(), "{other}");
            assert!(tagged.iter().all(|s| s.name != *other), "{other}");
        }
        let spec = spec(name).unwrap();
        let small = run(&spec, 1, spec.min_requests - 1).unwrap();
        assert_eq!(small.requests, spec.min_requests, "{name}");
        assert!(small.submitted >= spec.min_requests, "{name}");
    }

    #[test]
    fn healthy_scenario_passes_and_is_deterministic() {
        let [a, b] = replay(Tag::Controller, "healthy", 42, 40);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.answered, a.submitted);
        assert!(a.rung_sequence.chars().all(|c| c == 'F'));
        assert_eq!(a.rung_sequence, b.rung_sequence);
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(spec("nope").is_none());
        assert_tag_selects_only_its_own(
            Tag::Controller,
            &["primary_kill_failover", "process_crash_recovery"],
            "healthy",
        );
    }

    #[test]
    fn replication_scenarios_pass_and_are_deterministic() {
        for name in [
            "primary_kill_failover",
            "hedged_straggler",
            "flapping_replica",
        ] {
            let [a, b] = replay(Tag::Replication, name, scenario_seed(42, name), 48);
            assert!(a.passed(), "{name} violations: {:?}", a.violations);
            assert_eq!(a.answered, a.submitted, "{name}");
            assert_eq!(a.rung_sequence, b.rung_sequence, "{name}");
            assert_eq!(a.failover_sequence, b.failover_sequence, "{name}");
        }
    }

    #[test]
    fn unknown_replication_scenario_is_an_error() {
        assert_tag_selects_only_its_own(
            Tag::Replication,
            &["healthy", "corrupt_snapshot"],
            "hedged_straggler",
        );
    }

    #[test]
    fn process_crash_recovery_restores_warm_and_is_deterministic() {
        let name = "process_crash_recovery";
        let [a, b] = replay(Tag::Recovery, name, scenario_seed(42, name), 40);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.answered, a.submitted);
        assert!(
            a.event_sequence.starts_with("warm(g"),
            "event digest: {}",
            a.event_sequence
        );
        assert!(
            a.rung_sequence.contains('L'),
            "warm window must serve LastGood: {}",
            a.rung_sequence
        );
        assert_eq!(a.rung_sequence, b.rung_sequence);
        assert_eq!(a.event_sequence, b.event_sequence);
    }

    #[test]
    fn corrupt_snapshot_sweep_cold_starts_cleanly() {
        let name = "corrupt_snapshot";
        let [a, b] = replay(Tag::Recovery, name, scenario_seed(42, name), 40);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.answered, a.submitted);
        for kind in [
            "cold:truncated",
            "cold:missing_manifest",
            "cold:manifest_mismatch",
        ] {
            assert!(
                a.event_sequence.contains(kind),
                "event digest missing {kind}: {}",
                a.event_sequence
            );
        }
        assert!(
            !a.rung_sequence.contains('L'),
            "cold starts must never serve restored state: {}",
            a.rung_sequence
        );
        assert_eq!(a.rung_sequence, b.rung_sequence);
        assert_eq!(a.event_sequence, b.event_sequence);
    }

    #[test]
    fn unknown_recovery_scenario_is_an_error() {
        assert_tag_selects_only_its_own(
            Tag::Recovery,
            &["healthy", "hedged_straggler", "fleet_recovery_drill"],
            "corrupt_snapshot",
        );
    }
}
