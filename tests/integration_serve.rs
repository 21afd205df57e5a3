//! Integration tests for single-shard serving (a one-replica
//! `ReplicaSet`: the admission queue in front of one controller):
//! end-to-end ladder behaviour, the seeded admission/shedding property,
//! and same-seed determinism of chaos scenarios.

use std::sync::Arc;

use gddr_core::{DdrEnvConfig, MlpPolicy};
use gddr_net::topology::zoo;
use gddr_net::Graph;
use gddr_rng::rngs::StdRng;
use gddr_rng::{Rng, SeedableRng};
use gddr_serve::{
    scenario, ControllerConfig, EngineFactory, EpochRequest, FailoverConfig, FaultPlan,
    HedgeConfig, InferenceEngine, PolicyEngine, ReplicaSet, Rung, DEFAULT_DEADLINE_MS,
};
use gddr_traffic::gen::{bimodal, BimodalParams};
use gddr_traffic::DemandMatrix;

fn factory() -> EngineFactory {
    Arc::new(move |graph: &Graph| {
        let mut rng = StdRng::seed_from_u64(7);
        let policy = MlpPolicy::new(
            3,
            graph.num_nodes(),
            graph.num_edges(),
            &[8],
            -0.5,
            &mut rng,
        );
        Box::new(PolicyEngine::new(policy, graph, 3)) as Box<dyn InferenceEngine>
    })
}

fn single_set(config: ControllerConfig) -> ReplicaSet {
    ReplicaSet::new(
        0,
        zoo::cesnet(),
        DdrEnvConfig {
            memory: 3,
            ..DdrEnvConfig::default()
        },
        config,
        vec![factory()],
        FailoverConfig::default(),
        HedgeConfig::default(),
    )
    .unwrap()
}

fn request(epoch: u64, rng: &mut StdRng) -> EpochRequest {
    EpochRequest {
        epoch,
        demands: bimodal(6, &BimodalParams::default(), rng),
        deadline_ms: DEFAULT_DEADLINE_MS,
    }
}

#[test]
fn end_to_end_serving_is_fresh_and_valid() {
    let mut set = single_set(ControllerConfig::default());
    let graph = set.with_primary(|c| c.graph().clone());
    let mut rng = StdRng::seed_from_u64(1);
    for e in 0..10 {
        let responses = set.handle(request(e, &mut rng), 1);
        assert_eq!(responses.len(), 1);
        let r = &responses[0];
        assert_eq!(r.rung, Rung::Fresh);
        assert!(r.routing.validate(&graph).is_empty());
        assert!(r.score.is_some());
    }
    assert_eq!(set.with_primary(|c| c.stats().responses()), 10);
}

/// The load-shedding property (seeded loop): under arbitrary burst
/// patterns against a tiny queue, every submitted request is answered
/// exactly once, and a request is only ever shed when the ladder can
/// (and does) answer it — no request is dropped, and no shed response
/// is missing a routing valid for the graph.
#[test]
fn admission_never_drops_and_sheds_only_what_the_ladder_answers() {
    for seed in 0..8 {
        let mut config = ControllerConfig {
            queue_capacity: 3,
            ..ControllerConfig::default()
        };
        config.pool.workers = 1;
        let mut set = single_set(config);
        let graph = set.with_primary(|c| c.graph().clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut submitted = 0u64;
        let mut answered = 0u64;
        let mut shed_seen = 0u64;

        for _round in 0..20 {
            // Burst between 1 and 7 requests, then drain.
            let burst = 1 + (rng.next_u64() % 7);
            let mut responses = Vec::new();
            for _ in 0..burst {
                responses.extend(set.enqueue(request(submitted, &mut rng)));
                submitted += 1;
            }
            while let Some(r) = set.process_next() {
                responses.push(r);
            }
            for r in &responses {
                answered += 1;
                assert!(
                    r.routing.validate(&graph).is_empty(),
                    "seed {seed}: response without a valid routing"
                );
                if r.shed {
                    shed_seen += 1;
                    // Shed requests are answered from the ladder, not
                    // dropped and not given fresh inference.
                    assert_ne!(
                        r.rung,
                        Rung::Fresh,
                        "seed {seed}: shed request ran inference"
                    );
                }
            }
        }
        assert_eq!(
            answered, submitted,
            "seed {seed}: {submitted} submitted but {answered} answered"
        );
        assert_eq!(set.with_primary(|c| c.stats().shed), shed_seen);
        // The queue bound (3) must actually bite under 7-bursts.
        assert!(shed_seen > 0, "seed {seed}: shedding never exercised");
    }
}

#[test]
fn malformed_requests_never_go_unanswered() {
    let mut set = single_set(ControllerConfig::default());
    let graph = set.with_primary(|c| c.graph().clone());
    let mut rng = StdRng::seed_from_u64(3);
    // Prime the ladder.
    set.handle(request(0, &mut rng), 1);

    let weird = vec![
        EpochRequest {
            epoch: 1,
            demands: DemandMatrix::from_fn(6, |_, _| f64::INFINITY),
            deadline_ms: DEFAULT_DEADLINE_MS,
        },
        EpochRequest {
            epoch: 2,
            demands: DemandMatrix::zeros(0),
            deadline_ms: DEFAULT_DEADLINE_MS,
        },
        EpochRequest {
            epoch: 3,
            demands: DemandMatrix::zeros(11),
            deadline_ms: DEFAULT_DEADLINE_MS,
        },
        EpochRequest {
            epoch: 4,
            demands: bimodal(6, &BimodalParams::default(), &mut rng),
            deadline_ms: 0,
        },
    ];
    for req in weird {
        let responses = set.handle(req, 1);
        assert_eq!(responses.len(), 1);
        assert_ne!(responses[0].rung, Rung::Fresh);
        assert!(responses[0].routing.validate(&graph).is_empty());
    }
    assert_eq!(set.with_primary(|c| c.stats().responses()), 5);
}

/// Same seed, same scenario → bit-identical rung sequences; different
/// seeds → (almost surely) different traffic, and at minimum a pass.
#[test]
fn chaos_scenarios_replay_deterministically() {
    for name in ["worker_panic", "slow_inference", "overload_burst"] {
        let spec = scenario::spec(name).unwrap();
        let a = scenario::run(&spec, 1234, 40).unwrap();
        let b = scenario::run(&spec, 1234, 40).unwrap();
        assert_eq!(
            a.rung_sequence, b.rung_sequence,
            "{name}: same-seed replay diverged"
        );
        assert!(a.passed(), "{name}: violations {:?}", a.violations);
        assert_eq!(a.answered, a.submitted);
    }
}

#[test]
fn chaos_fault_plan_spans_are_cloneable_and_inspectable() {
    let plan = FaultPlan::new().span(3..=5, gddr_serve::Fault::Panic);
    assert!(plan.fault(4).is_some());
    assert!(plan.fault(6).is_none());
    assert_eq!(plan.last_epoch(), Some(5));
}
