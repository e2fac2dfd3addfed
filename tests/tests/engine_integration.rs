//! Execution-engine integration: serial/parallel parity, memoization
//! behavior, and the run-level instrumentation surfaced by the optimizers.

use analog_dse::engine::{CacheConfig, EngineConfig, EvaluatorKind, ExecutionEngine, MemoCache};
use analog_dse::moea::nsga2::{Nsga2, Nsga2Config};
use analog_dse::moea::problems::{Schaffer, Zdt1};
use analog_dse::moea::{EngineSetup, Evaluation, Problem};
use analog_dse::sacga::island::{IslandConfig, IslandGa};
use analog_dse::sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use analog_dse::sacga::sacga::{Sacga, SacgaConfig};
use analog_dse::sacga::telemetry::Optimizer;
use proptest::prelude::*;

proptest! {
    /// A generation evaluated serially and in parallel must yield the
    /// exact same `Evaluation` sequence, element for element.
    #[test]
    fn serial_and_parallel_evaluations_identical(
        batch in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 1..9), 0..40),
        threads in 0usize..9,
    ) {
        let problem = Zdt1::new(8);
        let eval = |genes: &[f64]| -> Evaluation {
            // Zdt1 wants exactly 8 genes in [0,1]; fold arbitrary inputs in.
            let mut padded: Vec<f64> = genes
                .iter()
                .map(|g| (g.abs() / 10.0).clamp(0.0, 1.0))
                .collect();
            padded.resize(8, 0.25);
            problem.evaluate(&padded)
        };
        let run = |kind: EvaluatorKind| {
            let mut engine: ExecutionEngine<Evaluation> =
                ExecutionEngine::new(EngineConfig::default().evaluator(kind));
            engine.evaluate_batch(&batch, &eval)
        };
        let serial = run(EvaluatorKind::Serial);
        let parallel = run(EvaluatorKind::ParallelWith(threads));
        prop_assert_eq!(serial, parallel);
    }
}

#[test]
fn cache_returns_stored_result_within_one_quantization_step() {
    let problem = Schaffer::new();
    let mut cache: MemoCache<Evaluation> = MemoCache::new(CacheConfig::with_capacity(8).grid(0.5));
    let stored = problem.evaluate(&[1.0]);
    cache.insert(cache.key_of(&[1.0]), stored.clone());
    // Anything within half a grid step of the stored vector shares its key
    // and must come back as the stored evaluation, not a fresh one.
    for nearby in [0.76, 0.9, 1.0, 1.13, 1.24] {
        let key = cache.key_of(&[nearby]);
        assert_eq!(
            cache.get(&key).as_ref(),
            Some(&stored),
            "x = {nearby} should hit the entry stored for x = 1.0"
        );
    }
    // A full quantization step away must miss.
    let far_key = cache.key_of(&[1.5]);
    assert!(cache.get(&far_key).is_none());
}

/// ISSUE acceptance: for a fixed seed, `Sacga::run_seeded` produces an
/// identical Pareto front under the serial and parallel evaluators.
#[test]
fn sacga_front_identical_under_serial_and_parallel_evaluators() {
    let base = || {
        SacgaConfig::builder()
            .population_size(40)
            .generations(25)
            .partitions(6)
    };
    let serial_cfg = base()
        .engine_setup(EngineSetup::new().evaluator(EvaluatorKind::Serial))
        .build()
        .unwrap();
    let parallel_cfg = base()
        .engine_setup(EngineSetup::new().evaluator(EvaluatorKind::Parallel))
        .build()
        .unwrap();
    let serial = Sacga::new(Schaffer::new(), serial_cfg)
        .run_seeded(42)
        .unwrap();
    let parallel = Sacga::new(Schaffer::new(), parallel_cfg)
        .run_seeded(42)
        .unwrap();
    assert_eq!(serial.front_objectives(), parallel.front_objectives());
    assert_eq!(serial.stats.evaluations, parallel.stats.evaluations);
    assert_eq!(serial.gen_t, parallel.gen_t);
    // Bit-for-bit: the full final populations match, genes included.
    let genes = |r: &analog_dse::moea::RunOutcome| -> Vec<Vec<f64>> {
        r.population.iter().map(|m| m.genes.clone()).collect()
    };
    assert_eq!(genes(&serial), genes(&parallel));
}

#[test]
fn nsga2_front_identical_under_serial_and_parallel_evaluators() {
    let base = || Nsga2Config::builder().population_size(24).generations(15);
    let serial_cfg = base().build().unwrap();
    let parallel_cfg = base()
        .engine_setup(EngineSetup::new().evaluator(EvaluatorKind::ParallelWith(4)))
        .build()
        .unwrap();
    let serial = Nsga2::new(Zdt1::new(6), serial_cfg).run(9).unwrap();
    let parallel = Nsga2::new(Zdt1::new(6), parallel_cfg).run(9).unwrap();
    assert_eq!(serial.front_objectives(), parallel.front_objectives());
    assert_eq!(serial.stats.evaluations, parallel.stats.evaluations);
}

/// ISSUE acceptance: a MESACGA multi-phase run with memoization enabled
/// reports a nonzero cache hit rate through `EngineStats`.
#[test]
fn mesacga_multi_phase_run_reports_cache_hits() {
    let cfg = MesacgaConfig::builder()
        .population_size(40)
        .phase1_max(5)
        .phases(vec![
            PhaseSpec::new(8, 10),
            PhaseSpec::new(4, 10),
            PhaseSpec::new(1, 10),
        ])
        .engine_setup(EngineSetup::new().cache_capacity(4096).cache_grid(1e-3))
        .build()
        .unwrap();
    let r = Mesacga::new(Schaffer::new(), cfg).run_seeded(5).unwrap();
    let stats = &r.stats;
    assert!(stats.candidates > 0);
    assert!(
        stats.cache_hits > 0,
        "expected cache hits on a converging multi-phase run, stats: {stats:?}"
    );
    assert!(stats.hit_rate() > 0.0);
    assert_eq!(
        stats.evaluations + stats.cache_hits,
        stats.candidates,
        "every candidate is either evaluated or served from cache"
    );
    assert!(!r.front.is_empty());
}

#[test]
fn default_engine_config_preserves_original_budget_accounting() {
    // With the default engine (serial, no cache) the evaluation counters
    // must equal the classic pop + gens * pop budget.
    let cfg = Nsga2Config::builder()
        .population_size(10)
        .generations(5)
        .build()
        .unwrap();
    assert_eq!(*cfg.engine(), EngineConfig::default());
    let r = Nsga2::new(Schaffer::new(), cfg).run(1).unwrap();
    assert_eq!(r.stats.evaluations, 10 + 5 * 10);
    assert_eq!(r.stats.candidates, 60);
    assert_eq!(r.stats.cache_hits, 0);
    assert_eq!(r.stats.batches as usize, 1 + 5);
    assert_eq!(r.stats.max_batch, 10);
}

#[test]
fn island_engine_stats_cover_archipelago() {
    let cfg = IslandConfig::builder()
        .population_size(40)
        .generations(10)
        .islands(4)
        .engine_setup(EngineSetup::new().evaluator(EvaluatorKind::Parallel))
        .build()
        .unwrap();
    let r = IslandGa::new(Schaffer::new(), cfg).run_seeded(3).unwrap();
    assert_eq!(r.stats.candidates, (40 + 10 * 40) as u64);
    // init batch (whole archipelago) + one batch per island per generation
    assert_eq!(r.stats.batches as usize, 1 + 10 * 4);
    assert_eq!(r.stats.max_batch, 40);
    assert!(r.stats.eval_time.as_nanos() > 0);
}
