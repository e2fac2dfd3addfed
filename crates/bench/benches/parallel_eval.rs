//! Execution-engine throughput on the integrator sizing problem: one
//! generation-sized batch evaluated serially, with the thread-pooled
//! evaluator, and through a warm memoization cache.

use analog_circuits::{DrivableLoadProblem, Spec};
use criterion::{criterion_group, criterion_main, Criterion};
use engine::{EngineConfig, EvaluatorKind, ExecutionEngine};
use moea::{Evaluation, Problem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const BATCH: usize = 100;

fn gene_batch() -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..BATCH)
        .map(|_| (0..15).map(|_| rng.gen_range(0.05..0.95)).collect())
        .collect()
}

fn bench_engine(c: &mut Criterion) {
    let problem = DrivableLoadProblem::new(Spec::featured());
    let eval = |genes: &[f64]| problem.evaluate(genes);
    let batch = gene_batch();

    for (name, evaluator) in [
        ("engine_batch100_serial", EvaluatorKind::Serial),
        ("engine_batch100_parallel", EvaluatorKind::Parallel),
    ] {
        c.bench_function(name, |b| {
            let mut exec: ExecutionEngine<Evaluation> =
                ExecutionEngine::new(EngineConfig::default().evaluator(evaluator));
            b.iter(|| exec.evaluate_batch(black_box(&batch), &eval));
        });
    }

    c.bench_function("engine_batch100_cached_warm", |b| {
        let mut exec: ExecutionEngine<Evaluation> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(4 * BATCH));
        let _ = exec.evaluate_batch(&batch, &eval);
        b.iter(|| exec.evaluate_batch(black_box(&batch), &eval));
    });
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
