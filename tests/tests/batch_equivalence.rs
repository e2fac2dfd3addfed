//! Bit-for-bit equivalence of the struct-of-arrays batch evaluation path
//! against the scalar path, for every circuits problem.
//!
//! The batch kernels (`Problem::evaluate_all` on `DrivableLoadProblem` and
//! `IntegratorProblem`, dispatched by
//! `ExecutionEngine::try_evaluate_batch_with`) are a pure performance
//! feature: every pinned artifact in `results/` must stay byte-identical
//! whether a run used the batch or the scalar path. These tests pin that
//! contract directly — problem-level (`evaluate_all` vs mapped
//! `evaluate`), engine-level (kernel dispatch vs scalar dispatch,
//! including stats and fault events), across batch sizes {1, 2, 7, 64},
//! every process corner, and seeded fault-injection plans.

use analog_circuits::process::{Corner, Process};
use analog_circuits::surrogate::{self, ScreenThresholds};
use analog_circuits::{DrivableLoadProblem, IntegratorProblem, Spec};
use engine::{
    silence_injected_panics, EngineConfig, EngineStats, ExecutionEngine, FaultPlan, FaultPolicy,
};
use moea::{Evaluation, Problem};
use proptest::prelude::*;

mod common;
use common::pseudo_batch;

/// Stats with wall-clock fields zeroed: everything else must match
/// exactly between the scalar and batch paths.
fn normalized(stats: &EngineStats) -> EngineStats {
    let mut s = stats.clone();
    s.eval_time = std::time::Duration::ZERO;
    s.backoff_time = std::time::Duration::ZERO;
    s
}

/// Runs one batch through a fresh engine; `use_kernel` selects the batch
/// kernel dispatch (`try_evaluate_batch_with` + `evaluate_all`) or the
/// plain scalar dispatch (`try_evaluate_batch`).
fn run_once<P: Problem + Sync>(
    problem: &P,
    config: EngineConfig,
    batch: &[Vec<f64>],
    use_kernel: bool,
) -> (Vec<Evaluation>, EngineStats, usize) {
    let mut exec: ExecutionEngine<Evaluation> = ExecutionEngine::new(config);
    let values = if use_kernel {
        exec.try_evaluate_batch_with(
            batch,
            &|genes| problem.evaluate(genes),
            &|chunk: &[Vec<f64>]| problem.evaluate_all(chunk),
        )
    } else {
        exec.try_evaluate_batch(batch, &|genes| problem.evaluate(genes))
    }
    .expect("tolerant policy should not abort the batch");
    let faults = exec.take_fault_events().len();
    (values, exec.stats().clone(), faults)
}

fn assert_paths_identical<P: Problem + Sync>(
    problem: &P,
    config: EngineConfig,
    batch: &[Vec<f64>],
) {
    let (scalar, s_stats, s_faults) = run_once(problem, config.clone(), batch, false);
    let (kernel, k_stats, k_faults) = run_once(problem, config, batch, true);
    assert_eq!(scalar, kernel, "values diverged for n={}", batch.len());
    assert_eq!(
        normalized(&s_stats),
        normalized(&k_stats),
        "stats diverged for n={}",
        batch.len()
    );
    assert_eq!(s_faults, k_faults, "fault events diverged");
}

#[test]
fn drivable_kernel_matches_scalar_across_batch_sizes() {
    let problem = DrivableLoadProblem::new(Spec::featured());
    for (salt, n) in [1usize, 2, 7, 64].into_iter().enumerate() {
        assert_paths_identical(
            &problem,
            EngineConfig::default(),
            &pseudo_batch(n, salt as u64),
        );
    }
}

#[test]
fn integrator_kernel_matches_scalar_across_batch_sizes() {
    let problem = IntegratorProblem::new(Spec::relaxed());
    for (salt, n) in [1usize, 2, 7, 64].into_iter().enumerate() {
        assert_paths_identical(
            &problem,
            EngineConfig::default(),
            &pseudo_batch(n, 100 + salt as u64),
        );
    }
}

#[test]
fn kernel_matches_scalar_at_every_process_corner() {
    for corner in Corner::ALL {
        let process = Process::nominal().at_corner(corner);
        let batch = pseudo_batch(7, 7 + corner as u64);
        let drivable = DrivableLoadProblem::new(Spec::featured()).with_process(process);
        assert_paths_identical(&drivable, EngineConfig::default(), &batch);
        let integrator = IntegratorProblem::new(Spec::featured()).with_process(process);
        assert_paths_identical(&integrator, EngineConfig::default(), &batch);
    }
}

#[test]
fn kernel_matches_scalar_under_seeded_fault_injection() {
    // Faults must land on the same candidates either way: scheduled
    // candidates take the scalar guarded path inside the kernel dispatch,
    // so the injector consumes its schedule identically.
    silence_injected_panics();
    let problem = DrivableLoadProblem::new(Spec::featured());
    for seed in [3u64, 19, 41] {
        let config = EngineConfig::default()
            .fault_policy(FaultPolicy::tolerant(3))
            .inject_faults(FaultPlan::seeded(seed).panics(0.10).nonfinite(0.10));
        assert_paths_identical(&problem, config, &pseudo_batch(32, seed));
    }
}

#[test]
fn kernel_matches_scalar_with_memoization_enabled() {
    // Duplicated candidates exercise the cache on both paths; hit counts
    // must agree because misses are collected identically before dispatch.
    let problem = DrivableLoadProblem::new(Spec::featured());
    let mut batch = pseudo_batch(9, 5);
    let dup = batch[2].clone();
    batch.push(dup);
    batch.push(batch[0].clone());
    let config = EngineConfig::default().cache_capacity(256);
    assert_paths_identical(&problem, config, &batch);
}

#[test]
fn raw_gene_cache_keys_miss_where_canonical_keys_hit() {
    // Regression for the 0% figure-run hit rate: two raw gene vectors that
    // quantize onto the same manufacturing grid still differ far beyond the
    // engine's default 1e-9 key grid, so a raw-keyed cache records nothing
    // but misses. Keying by the canonical (quantized) basis — what the
    // circuit problems install via `cache_canonicalizer` — turns the
    // collision into a hit, and the cached answer is bit-identical.
    let problem = DrivableLoadProblem::new(Spec::featured());
    let a = pseudo_batch(1, 77).pop().unwrap();
    let mut b = a.clone();
    b[0] += 1e-4; // far beyond the 1e-9 grid, within one width unit
    assert_eq!(
        analog_circuits::drivable::canonical_sizing_genes(&a),
        analog_circuits::drivable::canonical_sizing_genes(&b),
        "fixture must quantize to a single design"
    );

    let batch = vec![a, b];
    let mut raw: ExecutionEngine<Evaluation> =
        ExecutionEngine::new(EngineConfig::default().cache_capacity(64));
    let raw_vals = raw
        .try_evaluate_batch(&batch, &|g| problem.evaluate(g))
        .unwrap();
    assert_eq!(raw.stats().cache_hits, 0, "raw keys alias to misses");
    assert_eq!(raw.stats().evaluations, 2);

    let mut canon: ExecutionEngine<Evaluation> =
        ExecutionEngine::new(EngineConfig::default().cache_capacity(64));
    canon.set_cache_canonicalizer(analog_circuits::drivable::canonical_sizing_genes);
    let canon_vals = canon
        .try_evaluate_batch(&batch, &|g| problem.evaluate(g))
        .unwrap();
    assert_eq!(
        canon.stats().cache_hits,
        1,
        "canonical keys share one entry"
    );
    assert_eq!(canon.stats().evaluations, 1);
    assert_eq!(raw_vals, canon_vals, "cached answers are bit-identical");
}

#[test]
fn screened_accounting_balances_and_never_caches() {
    let problem = DrivableLoadProblem::new(Spec::featured());
    let screen = surrogate::drivable_screen(problem.process(), ScreenThresholds::conservative());
    let mut exec: ExecutionEngine<Evaluation> =
        ExecutionEngine::new(EngineConfig::default().cache_capacity(256));
    exec.attach_screen(screen);
    // Mix healthy candidates with slew-starved ones the screen answers.
    let mut batch = pseudo_batch(12, 23);
    for i in 0..6 {
        let mut g = batch[i].clone();
        g[10] = 0.0; // itail minimum
        g[11] = 1.0; // cc maximum
        batch.push(g);
    }
    let out = exec
        .try_evaluate_batch_with(
            &batch,
            &|genes| problem.evaluate(genes),
            &|chunk: &[Vec<f64>]| problem.evaluate_all(chunk),
        )
        .unwrap();
    assert_eq!(out.len(), batch.len());
    let stats = exec.stats();
    assert!(stats.screened >= 6, "screen should have fired: {stats:?}");
    assert_eq!(
        stats.candidates,
        stats.evaluations + stats.cache_hits + stats.screened,
        "candidate attribution must balance: {stats:?}"
    );
}

#[test]
fn never_firing_screen_is_byte_identical_to_no_screen() {
    let problem = DrivableLoadProblem::new(Spec::featured());
    let batch = pseudo_batch(10, 31);
    let (bare, bare_stats, _) = run_once(&problem, EngineConfig::default(), &batch, true);
    let mut exec: ExecutionEngine<Evaluation> = ExecutionEngine::new(EngineConfig::default());
    exec.attach_screen(surrogate::drivable_screen(
        problem.process(),
        ScreenThresholds::never(),
    ));
    let screened = exec
        .try_evaluate_batch_with(
            &batch,
            &|genes| problem.evaluate(genes),
            &|chunk: &[Vec<f64>]| problem.evaluate_all(chunk),
        )
        .unwrap();
    assert_eq!(bare, screened);
    assert_eq!(exec.stats().screened, 0);
    assert_eq!(
        normalized(&bare_stats),
        normalized(exec.stats()),
        "a never-firing screen must be a statistical no-op"
    );
}

proptest! {
    #[test]
    fn prop_drivable_evaluate_all_is_bit_identical(
        genes in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 15), 1..10)
    ) {
        let p = DrivableLoadProblem::new(Spec::featured());
        let fast = p.evaluate_all(&genes);
        for (i, g) in genes.iter().enumerate() {
            prop_assert_eq!(&fast[i], &p.evaluate(g), "candidate {}", i);
        }
    }

    #[test]
    fn prop_integrator_evaluate_all_is_bit_identical(
        genes in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 15), 1..10)
    ) {
        let p = IntegratorProblem::new(Spec::featured());
        let fast = p.evaluate_all(&genes);
        for (i, g) in genes.iter().enumerate() {
            prop_assert_eq!(&fast[i], &p.evaluate(g), "candidate {}", i);
        }
    }

    #[test]
    fn prop_canonical_genes_share_one_evaluation(
        genes in prop::collection::vec(0.0f64..1.0, 15),
        bump in 0.0f64..1e-7,
    ) {
        // Any perturbation small enough to keep the canonical basis fixed
        // must keep the evaluation bit-identical (the cache-key safety
        // property behind `cache_canonicalizer`).
        let mut nudged = genes.clone();
        nudged[3] = (nudged[3] + bump).min(1.0);
        let ca = analog_circuits::drivable::canonical_sizing_genes(&genes);
        let cb = analog_circuits::drivable::canonical_sizing_genes(&nudged);
        if ca == cb {
            let p = DrivableLoadProblem::new(Spec::featured());
            prop_assert_eq!(p.evaluate(&genes), p.evaluate(&nudged));
        }
    }
}
