//! Substrate benchmarks: non-dominated sorting cost vs population size,
//! variation-operator throughput, and NSGA-II generations on the ZDT
//! suite — validating the GA machinery's performance independently of the
//! circuit models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moea::evaluation::Evaluation;
use moea::individual::Individual;
use moea::nsga2::{Nsga2, Nsga2Config};
use moea::operators::{random_vector, Variation};
use moea::problem::{Bounds, Problem};
use moea::problems::{Schaffer, Zdt1, Zdt3};
use moea::sorting::rank_and_crowd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sacga::telemetry::Optimizer;

fn random_population(n: usize, objectives: usize, seed: u64) -> Vec<Individual> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let objs: Vec<f64> = (0..objectives).map(|_| rng.gen_range(0.0..1.0)).collect();
            Individual::new(vec![0.0], Evaluation::unconstrained(objs))
        })
        .collect()
}

fn bench_sorting(c: &mut Criterion) {
    let mut group = c.benchmark_group("non_dominated_sort");
    for n in [50usize, 100, 200, 400] {
        let pop = random_population(n, 2, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pop, |b, p| {
            b.iter_batched(
                || p.clone(),
                |mut pop| rank_and_crowd(&mut pop),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_operators(c: &mut Criterion) {
    let bounds = Bounds::uniform(15, 0.0, 1.0).unwrap();
    let variation = Variation::standard(15);
    c.bench_function("sbx_plus_mutation_15d", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let p1 = random_vector(&mut rng, &bounds);
        let p2 = random_vector(&mut rng, &bounds);
        b.iter(|| variation.offspring(&mut rng, &p1, &p2, &bounds));
    });
}

fn bench_nsga2_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2_full_runs");
    group.sample_size(10);
    let cfg = Nsga2Config::builder()
        .population_size(60)
        .generations(50)
        .build()
        .unwrap();
    let problems: Vec<(&str, Box<dyn Problem + Sync>)> = vec![
        ("SCH", Box::new(Schaffer::new())),
        ("ZDT1", Box::new(Zdt1::new(15))),
        ("ZDT3", Box::new(Zdt3::new(15))),
    ];
    for (name, problem) in &problems {
        group.bench_function(*name, |b| {
            b.iter(|| Nsga2::new(problem.as_ref(), cfg.clone()).run(1).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sorting, bench_operators, bench_nsga2_suite);
criterion_main!(benches);
