//! End-to-end telemetry: a short seeded training run on the real DDR
//! environment must emit the expected spans and metrics, and a JSONL
//! trace must round-trip losslessly through `gddr-ser`.
//!
//! Telemetry state is global (one sink per process), so every test in
//! this file runs inside [`with_telemetry`], which serialises access.

use std::sync::{Arc, Mutex};

use gddr_core::env::{standard_sequences, DdrEnv, DdrEnvConfig, GraphContext};
use gddr_core::policies::MlpPolicy;
use gddr_rl::{Ppo, PpoConfig, TrainingLog};
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_ser::{FromJson, Json, ToJson};
use gddr_telemetry::{parse_jsonl, Event, JsonlSink, MemorySink, NoopSink};

static TELEMETRY_GUARD: Mutex<()> = Mutex::new(());

/// Runs `f` with exclusive ownership of the global telemetry state,
/// starting and finishing with a clean registry and no sink.
fn with_telemetry<R>(f: impl FnOnce() -> R) -> R {
    let _guard = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    gddr_telemetry::uninstall();
    gddr_telemetry::registry().clear();
    let result = f();
    gddr_telemetry::uninstall();
    gddr_telemetry::registry().clear();
    result
}

/// A tiny but real training run: Abilene-free small topology, MLP
/// policy, two PPO updates' worth of steps.
fn short_training_run(seed: u64) -> TrainingLog {
    let g = gddr_net::topology::zoo::cesnet();
    let mut rng = StdRng::seed_from_u64(seed);
    let sequences = standard_sequences(&g, 2, 10, 5, &mut rng);
    let env_cfg = DdrEnvConfig {
        memory: 2,
        ..Default::default()
    };
    let mut env = DdrEnv::new(GraphContext::new(g.clone(), sequences), env_cfg);
    let mut policy = MlpPolicy::new(2, g.num_nodes(), g.num_edges(), &[8], -0.7, &mut rng);
    let mut ppo = Ppo::new(PpoConfig {
        n_steps: 16,
        minibatch_size: 8,
        epochs: 1,
        ..Default::default()
    });
    let mut log = TrainingLog::default();
    ppo.train(&mut env, &mut policy, 32, &mut rng, &mut log);
    log
}

#[test]
fn training_emits_expected_spans_and_metrics() {
    with_telemetry(|| {
        let sink = Arc::new(MemorySink::new());
        gddr_telemetry::install(sink.clone());
        let log = short_training_run(0);
        gddr_telemetry::uninstall();
        assert!(!log.updates.is_empty());

        let events = sink.events();
        let has_span = |name: &str| {
            events
                .iter()
                .any(|e| matches!(e, Event::Span { name: n, .. } if n == name))
        };
        for name in [
            "ppo.rollout",
            "ppo.update",
            "ppo.backward",
            "env.step",
            "env.reward",
            "lp.simplex.solve",
            "lp.oracle.solve",
            "routing.softmin",
        ] {
            assert!(has_span(name), "no {name:?} span was emitted");
        }

        let snap = gddr_telemetry::registry().snapshot();
        assert_eq!(snap.counter("ppo.updates"), Some(2));
        assert_eq!(snap.counter("ppo.env_steps"), Some(32));
        assert!(snap.counter("lp.simplex.solves").unwrap() > 0);
        assert!(snap.counter("lp.simplex.pivots").unwrap() > 0);
        // Cyclical sequences revisit matrices: the oracle must hit.
        assert!(snap.counter("lp.oracle.hits").unwrap() > 0);
        assert!(snap.counter("lp.oracle.misses").unwrap() > 0);
        assert!(snap.gauge("ppo.entropy").is_some());
        assert!(snap.gauge("ppo.approx_kl").is_some());
        assert!(snap.gauge("ppo.clip_fraction").is_some());
        assert!(snap.gauge("ppo.grad_norm").unwrap() > 0.0);
        let hist = snap
            .histogram("env.reward_ratio_ppm")
            .expect("ratio histogram");
        assert_eq!(hist.count, 32);
        // The achieved/optimal utilisation ratio is at least 1, i.e. at
        // least a million parts per million.
        assert!(hist.mean() >= 1e6);

        // Span aggregates land in the registry too.
        assert_eq!(snap.counter("span.env.step.count"), Some(32));
    });
}

#[test]
fn jsonl_trace_round_trips_losslessly() {
    with_telemetry(|| {
        let dir = std::env::temp_dir().join("gddr_telemetry_test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(format!("trace_{}.jsonl", std::process::id()));

        let sink = JsonlSink::create(&path).expect("create JSONL sink");
        gddr_telemetry::install(Arc::new(sink));
        short_training_run(1);
        gddr_telemetry::uninstall();

        let text = std::fs::read_to_string(&path).expect("read trace");
        let events = parse_jsonl(&text).expect("trace parses");
        assert!(!events.is_empty());

        // Every line reparses to an event that re-serialises to the
        // identical bytes.
        for (line, event) in text.lines().zip(&events) {
            assert_eq!(event.to_json().to_string(), line);
            let reparsed = Event::from_json(&Json::parse(line).unwrap()).unwrap();
            assert_eq!(&reparsed, event);
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Span { name, .. } if name == "env.step")));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Counter { name, .. } if name == "lp.oracle.hits")));

        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn disabled_telemetry_leaves_no_trace_in_registry() {
    with_telemetry(|| {
        let log = short_training_run(2);
        assert!(!log.updates.is_empty());
        let snap = gddr_telemetry::registry().snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    });
}

/// The oracle answers from its reference basis on every zoo graph: a
/// silent fallback to the cold solve would stay correct but slow, so
/// `lp.mcf.cold_fallbacks` must stay at zero on seeded diurnal and
/// bimodal traffic.
#[test]
fn oracle_resolves_never_fall_back_to_cold_solves_on_zoo_traffic() {
    use gddr_lp::CachedOracle;
    use gddr_net::topology::zoo;
    use gddr_traffic::gen::{bimodal, BimodalParams};
    use gddr_traffic::scenario::{diurnal_flash_crowd, FlashCrowdParams};

    with_telemetry(|| {
        gddr_telemetry::install(Arc::new(NoopSink));
        let mut solved = 0;
        for (i, g) in zoo::all().into_iter().enumerate() {
            let n = g.num_nodes();
            let mut rng = StdRng::seed_from_u64(40 + i as u64);
            let mut dms = diurnal_flash_crowd(
                n,
                3,
                12,
                0.3,
                600.0 * (n * (n - 1)) as f64,
                &FlashCrowdParams::default(),
                &mut rng,
            );
            dms.extend((0..2).map(|_| bimodal(n, &BimodalParams::default(), &mut rng)));
            let oracle = CachedOracle::new(g.clone());
            for dm in &dms {
                let u = oracle.u_opt(dm).expect("zoo demands have an optimum");
                assert!(u.is_finite() && u > 0.0, "{}: U_opt {u}", g.name());
                solved += 1;
            }
        }
        gddr_telemetry::uninstall();
        let snap = gddr_telemetry::registry().snapshot();
        assert_eq!(snap.counter("lp.oracle.misses"), Some(solved));
        assert_eq!(snap.counter("lp.mcf.cold_fallbacks").unwrap_or(0), 0);
    });
}
