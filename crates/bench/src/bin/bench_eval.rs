//! Pins raw evaluator throughput into `results/BENCH_eval.json`.
//!
//! ```text
//! bench_eval [--quick]
//! ```
//!
//! Measures the scalar `Problem::evaluate` loop of both circuit
//! problems over a fixed deterministic batch of designs and reports
//! evals/sec. Also measures the scheduling arm: a heterogeneous-cost
//! (bimodal spin) workload pushed through a 4-worker engine both
//! generationally (barrier batches) and through a steady
//! [`engine::EvaluationSession`] (windowed submission, quantum drains),
//! reporting the steady-over-barrier speedup that the
//! `bench_gate --eval` CI gate pins. `--quick` shrinks the per-routine
//! budget for CI smoke runs. The values are pinned by the golden and
//! session suites, so this binary only cares about throughput.

use std::hint::black_box;
use std::time::{Duration, Instant};

use analog_circuits::{DrivableLoadProblem, IntegratorProblem, Spec};
use engine::{EngineConfig, EvaluatorKind, ExecutionEngine};
use moea::{Evaluation, Problem};

/// Designs per measured repetition.
const BATCH: usize = 256;

/// One routine's measurement.
struct Sample {
    label: &'static str,
    evals: u64,
    wall_s: f64,
}

impl Sample {
    fn evals_per_sec(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let evals = self.evals as f64;
        evals / self.wall_s
    }
}

/// Deterministic unit-cube batch (same recipe as the integration
/// tests, so the measured designs are reproducible across runs).
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

/// Runs `routine` repeatedly (each rep evaluates `per_rep` designs)
/// until `budget` elapses, after one untimed warm-up rep.
fn measure_n(
    label: &'static str,
    per_rep: usize,
    budget: Duration,
    mut routine: impl FnMut(),
) -> Sample {
    routine();
    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed() < budget {
        routine();
        reps += 1;
    }
    Sample {
        label,
        evals: reps * per_rep as u64,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn measure(label: &'static str, budget: Duration, routine: impl FnMut()) -> Sample {
    measure_n(label, BATCH, budget, routine)
}

/// Candidates per scheduling-arm repetition.
const SCHED_TOTAL: usize = 512;
/// Worker threads for both scheduling arms.
const SCHED_WORKERS: usize = 4;
/// Barrier batch size of the generational arm.
const SCHED_GEN_BATCH: usize = 16;
/// Look-ahead window of the steady arm.
const SCHED_WINDOW: usize = 64;
/// Merge quantum of the steady arm.
const SCHED_QUANTUM: usize = 8;

/// Bimodal per-candidate cost: most designs are cheap, but a
/// deterministic ~1-in-16 hash bucket costs 16x — the heterogeneity
/// (one slow corner-case simulation per batch, on average) that makes
/// a per-generation barrier expensive. The cost is paid as a blocking
/// sleep, modelling an external simulator call: workers overlap their
/// waits (even on a CPU-starved CI box), but a barrier still stalls the
/// whole batch on its slowest candidate.
fn hetero_cost(genes: &[f64]) -> Duration {
    let h = genes[0].to_bits() ^ genes[1].to_bits().rotate_left(17);
    if h.is_multiple_of(16) {
        Duration::from_micros(800)
    } else {
        Duration::from_micros(50)
    }
}

/// Measures the same heterogeneous workload under the generational
/// barrier (batches of [`SCHED_GEN_BATCH`]) and under a steady
/// [`engine::EvaluationSession`] (window/quantum submission), both on a
/// [`SCHED_WORKERS`]-thread engine. Returns (generational, steady,
/// steady-over-generational speedup).
fn bench_scheduling(budget: Duration) -> (Sample, Sample, f64) {
    let designs = pseudo_batch(SCHED_TOTAL, 7);
    let eval = |genes: &[f64]| {
        std::thread::sleep(hetero_cost(genes));
        Evaluation::new(vec![genes[0]], vec![])
    };
    let engine_config =
        || EngineConfig::default().evaluator(EvaluatorKind::ParallelWith(SCHED_WORKERS));

    let mut barrier_engine: ExecutionEngine<Evaluation> = ExecutionEngine::new(engine_config());
    let generational = measure_n("hetero_generational", SCHED_TOTAL, budget, || {
        for chunk in designs.chunks(SCHED_GEN_BATCH) {
            black_box(barrier_engine.evaluate_batch(chunk, &eval));
        }
    });

    let mut steady_engine: ExecutionEngine<Evaluation> = ExecutionEngine::new(engine_config());
    let steady = measure_n("hetero_steady", SCHED_TOTAL, budget, || {
        steady_engine.with_session(&eval, |session| {
            let mut submitted = 0;
            let mut drained = 0;
            while drained < SCHED_TOTAL {
                while submitted < SCHED_TOTAL && submitted - drained < SCHED_WINDOW {
                    session.submit(&designs[submitted]);
                    submitted += 1;
                }
                let want = SCHED_QUANTUM.min(SCHED_TOTAL - drained);
                black_box(session.drain(want).expect("no faults injected"));
                drained += want;
            }
        });
    });

    let speedup = steady.evals_per_sec() / generational.evals_per_sec();
    println!(
        "{:<12} barrier {:>9.0} evals/s | steady {:>9.0} evals/s | {speedup:.2}x ({SCHED_WORKERS} workers)",
        "scheduling",
        generational.evals_per_sec(),
        steady.evals_per_sec(),
    );
    (generational, steady, speedup)
}

fn bench_problem<P: Problem>(
    name: &str,
    problem: &P,
    batch: &[Vec<f64>],
    budget: Duration,
    label: &'static str,
) -> Sample {
    let scalar = measure(label, budget, || {
        for genes in batch {
            black_box(problem.evaluate(black_box(genes)));
        }
    });
    println!("{name:<12} scalar {:>9.0} evals/s", scalar.evals_per_sec());
    scalar
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let budget = if quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(400)
    };
    let batch = pseudo_batch(BATCH, 42);

    let drivable = DrivableLoadProblem::new(Spec::featured());
    let d_scalar = bench_problem("drivable", &drivable, &batch, budget, "drivable_scalar");
    let integrator = IntegratorProblem::new(Spec::featured());
    let i_scalar = bench_problem(
        "integrator",
        &integrator,
        &batch,
        budget,
        "integrator_scalar",
    );

    let (generational, steady, sched_speedup) = bench_scheduling(budget);

    let rows = [&d_scalar, &i_scalar, &generational, &steady]
        .map(|s| {
            format!(
                "{{\"label\":{:?},\"evals\":{},\"wall_s\":{:?},\"evals_per_sec\":{:?}}}",
                s.label,
                s.evals,
                s.wall_s,
                s.evals_per_sec()
            )
        })
        .join(",");
    // Host parallelism contextualizes the numbers: a 1.1x scheduling
    // speedup on a 2-core CI box is not comparable to one on 32 cores.
    let host_workers = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let doc = format!(
        "{{\"schema\":4,\"batch\":{BATCH},\"host_workers\":{host_workers},\
         \"rows\":[{rows}],\
         \"scheduling\":{{\"total\":{SCHED_TOTAL},\"workers\":{SCHED_WORKERS},\
         \"gen_batch\":{SCHED_GEN_BATCH},\"window\":{SCHED_WINDOW},\
         \"quantum\":{SCHED_QUANTUM},\"steady_speedup\":{sched_speedup:?}}}}}\n"
    );
    let path = std::path::Path::new("results").join("BENCH_eval.json");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(&path, doc).expect("write BENCH_eval.json");
    println!("\nwrote {}", path.display());
}
