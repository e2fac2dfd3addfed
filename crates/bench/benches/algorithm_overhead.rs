//! The Sec. 5 runtime claim: SACGA and MESACGA take ~18 % more
//! computational time than NSGA-II for the same iteration budget, due to
//! the partition bookkeeping, promotion draws and per-partition sorting.
//!
//! Measured here as full (small-budget) runs on the integrator problem at
//! identical population sizes and generation counts, plus a
//! circuit-free measurement on ZDT1 where the algorithmic overhead is not
//! diluted by evaluation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dse_bench::{paper_problem, PHASE1_MAX};
use moea::nsga2::{Nsga2, Nsga2Config};
use moea::problems::Zdt1;
use sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use sacga::sacga::{Sacga, SacgaConfig};
use sacga::telemetry::Optimizer;

const POP: usize = 40;
const GENS: usize = 30;

fn bench_integrator(c: &mut Criterion) {
    let problem = paper_problem();
    let (lo, hi) = analog_circuits::DrivableLoadProblem::slice_range();
    let mut group = c.benchmark_group("integrator_runs");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("tpg", format!("{POP}x{GENS}")), |b| {
        let cfg = Nsga2Config::builder()
            .population_size(POP)
            .generations(GENS)
            .build()
            .unwrap();
        b.iter(|| Nsga2::new(&problem, cfg.clone()).run(1).unwrap());
    });
    group.bench_function(BenchmarkId::new("sacga8", format!("{POP}x{GENS}")), |b| {
        let cfg = SacgaConfig::builder()
            .population_size(POP)
            .generations(GENS)
            .partitions(8)
            .phase1_max(PHASE1_MAX.min(GENS / 2))
            .slice_range(lo, hi)
            .build()
            .unwrap();
        b.iter(|| Sacga::new(&problem, cfg.clone()).run_seeded(1).unwrap());
    });
    group.bench_function(BenchmarkId::new("mesacga", format!("{POP}x{GENS}")), |b| {
        let cfg = MesacgaConfig::builder()
            .population_size(POP)
            .phase1_max(GENS / 10)
            .phases(vec![
                PhaseSpec::new(8, GENS / 3),
                PhaseSpec::new(3, GENS / 3),
                PhaseSpec::new(1, GENS / 3),
            ])
            .slice_range(lo, hi)
            .build()
            .unwrap();
        b.iter(|| Mesacga::new(&problem, cfg.clone()).run_seeded(1).unwrap());
    });
    group.finish();
}

fn bench_pure_overhead(c: &mut Criterion) {
    // ZDT1 evaluations are nearly free, so this isolates the algorithmic
    // overhead of partitioned ranking + promotion.
    let problem = Zdt1::new(15);
    let mut group = c.benchmark_group("zdt1_runs");
    group.sample_size(20);
    let (pop, gens) = (100usize, 100usize);

    group.bench_function("tpg", |b| {
        let cfg = Nsga2Config::builder()
            .population_size(pop)
            .generations(gens)
            .build()
            .unwrap();
        b.iter(|| Nsga2::new(&problem, cfg.clone()).run(1).unwrap());
    });
    group.bench_function("sacga8", |b| {
        let cfg = SacgaConfig::builder()
            .population_size(pop)
            .generations(gens)
            .partitions(8)
            .build()
            .unwrap();
        b.iter(|| Sacga::new(&problem, cfg.clone()).run_seeded(1).unwrap());
    });
    group.bench_function("mesacga", |b| {
        let cfg = MesacgaConfig::builder()
            .population_size(pop)
            .phase1_max(10)
            .phases(vec![
                PhaseSpec::new(20, 30),
                PhaseSpec::new(8, 30),
                PhaseSpec::new(1, 30),
            ])
            .build()
            .unwrap();
        b.iter(|| Mesacga::new(&problem, cfg.clone()).run_seeded(1).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_integrator, bench_pure_overhead);
criterion_main!(benches);
