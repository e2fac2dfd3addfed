//! Cost of the circuit-analysis stack, bottom-up: device operating point,
//! op-amp DC + small-signal analysis, integrator performance equations
//! (whole, and split into the per-design stage and the per-load finish),
//! the drivable-load search, corner/mismatch robustness, and the two full
//! problem evaluations (fixed-load and drivable-load with bisection).

use analog_circuits::integrator::{self, ClockContext};
use analog_circuits::mosfet::Mosfet;
use analog_circuits::process::{DeviceType, Process};
use analog_circuits::sizing::DesignVector;
use analog_circuits::yield_est;
use analog_circuits::{DrivableLoadProblem, IntegratorProblem, Spec};
use criterion::{criterion_group, criterion_main, Criterion};
use moea::Problem;
use std::hint::black_box;

fn bench_stack(c: &mut Criterion) {
    let process = Process::nominal();
    let clock = ClockContext::standard();
    let dv = DesignVector::reference();
    let genes = vec![0.5f64; 15];

    c.bench_function("mosfet_operating_point", |b| {
        let m = Mosfet::new(DeviceType::Nmos, 60e-6, 0.4e-6);
        b.iter(|| m.operating_point(&process, black_box(0.8), black_box(0.9)));
    });

    c.bench_function("mosfet_vgs_for_current", |b| {
        let m = Mosfet::new(DeviceType::Nmos, 60e-6, 0.4e-6);
        b.iter(|| m.vgs_for_current(&process, black_box(30e-6), 0.9, 1.8));
    });

    c.bench_function("opamp_analyze", |b| {
        b.iter(|| analog_circuits::opamp::analyze(black_box(&dv), &process));
    });

    c.bench_function("integrator_analyze", |b| {
        b.iter(|| integrator::analyze(black_box(&dv), &process, &clock));
    });

    // The two halves of `integrator_analyze`: the once-per-design stage
    // (op-amp solve included) and the per-load finish a load search loops.
    c.bench_function("integrator_prepare", |b| {
        b.iter(|| integrator::prepare(black_box(&dv), &process, &clock));
    });

    c.bench_function("integrator_at_load", |b| {
        let stage = integrator::prepare(&dv, &process, &clock);
        b.iter(|| stage.at_load(black_box(dv.cl)));
    });

    c.bench_function("drivable_load", |b| {
        let p = DrivableLoadProblem::new(Spec::featured());
        b.iter(|| p.drivable_load(black_box(&dv)));
    });

    c.bench_function("robustness_9_samples", |b| {
        let spec = Spec::featured();
        b.iter(|| yield_est::robustness(black_box(&dv), &process, &clock, &spec));
    });

    c.bench_function("evaluate_fixed_load", |b| {
        let p = IntegratorProblem::new(Spec::featured());
        b.iter(|| p.evaluate(black_box(&genes)));
    });

    c.bench_function("evaluate_drivable_load", |b| {
        let p = DrivableLoadProblem::new(Spec::featured());
        b.iter(|| p.evaluate(black_box(&genes)));
    });
}

/// Deterministic unit-cube batch matching the `tests/tests/common` and
/// `bench_eval` fixtures, so all three measure the same designs.
fn pseudo_batch(n: usize, salt: u64) -> Vec<Vec<f64>> {
    #[allow(clippy::cast_precision_loss)]
    (0..n)
        .map(|i| {
            (0..15)
                .map(|j| {
                    let x = (i as f64 + 1.0) * 12.9898 + j as f64 * 78.233 + salt as f64 * 0.517;
                    (x.sin() * 43758.5453).fract().abs()
                })
                .collect()
        })
        .collect()
}

/// The scalar evaluation loop over a generation-sized batch of both
/// circuit problems.
fn bench_batch_scalar(c: &mut Criterion) {
    let batch = pseudo_batch(64, 42);
    let drivable = DrivableLoadProblem::new(Spec::featured());
    let integrator = IntegratorProblem::new(Spec::featured());

    let mut group = c.benchmark_group("batch64");
    group.bench_function("drivable_scalar", |b| {
        b.iter(|| {
            for genes in &batch {
                black_box(drivable.evaluate(black_box(genes)));
            }
        });
    });
    group.bench_function("integrator_scalar", |b| {
        b.iter(|| {
            for genes in &batch {
                black_box(integrator.evaluate(black_box(genes)));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_stack, bench_batch_scalar);
criterion_main!(benches);
