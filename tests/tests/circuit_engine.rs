//! The circuit problems through the execution engine: cache keys on the
//! canonical (quantized) design, and the surrogate screen's accounting.
//!
//! Every run loop evaluates through `ExecutionEngine::try_evaluate_batch`
//! (or a session over the same machinery), so these tests pin what the
//! engine adds on top of `Problem::evaluate` for the drivable-load
//! problem: canonical cache keys that turn quantization neighbors into
//! hits with bit-identical answers, and a screen that balances the
//! candidate accounting and, when it never fires, changes nothing.

use analog_circuits::surrogate::{self, ScreenThresholds};
use analog_circuits::{DrivableLoadProblem, Spec};
use engine::{EngineConfig, EngineStats, ExecutionEngine};
use moea::{Evaluation, Problem};
use proptest::prelude::*;

mod common;
use common::pseudo_batch;

/// Stats with wall-clock fields zeroed: everything else must match
/// exactly between two runs of the same batch.
fn normalized(stats: &EngineStats) -> EngineStats {
    let mut s = stats.clone();
    s.eval_time = std::time::Duration::ZERO;
    s.backoff_time = std::time::Duration::ZERO;
    s
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
        .try_evaluate_batch(&batch, &|genes| problem.evaluate(genes))
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
    let eval = |genes: &[f64]| problem.evaluate(genes);
    let mut bare_exec: ExecutionEngine<Evaluation> = ExecutionEngine::new(EngineConfig::default());
    let bare = bare_exec.try_evaluate_batch(&batch, &eval).unwrap();
    let mut exec: ExecutionEngine<Evaluation> = ExecutionEngine::new(EngineConfig::default());
    exec.attach_screen(surrogate::drivable_screen(
        problem.process(),
        ScreenThresholds::never(),
    ));
    let screened = exec.try_evaluate_batch(&batch, &eval).unwrap();
    assert_eq!(bare, screened);
    assert_eq!(exec.stats().screened, 0);
    assert_eq!(
        normalized(bare_exec.stats()),
        normalized(exec.stats()),
        "a never-firing screen must be a statistical no-op"
    );
}

proptest! {
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
