//! Compare the three algorithms of the paper — TPG (NSGA-II), SACGA and
//! MESACGA — on the integrator problem at equal evaluation budgets, and
//! print front quality metrics.
//!
//! A scaled-down version of the paper's Fig. 8 experiment (the full-budget
//! variant lives in the `dse-bench` harness). Run with:
//!
//! ```text
//! cargo run --release --example algorithm_comparison
//! ```

use analog_dse::circuits::{DrivableLoadProblem, Spec};
use analog_dse::moea::metrics::{bin_occupancy, spread};
use analog_dse::moea::nsga2::{Nsga2, Nsga2Config};
use analog_dse::moea::{Individual, OptimizeError};
use analog_dse::sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use analog_dse::sacga::sacga::{Sacga, SacgaConfig};
use analog_dse::sacga::telemetry::Optimizer;

const POP: usize = 60;
const GENS: usize = 220;
const SEED: u64 = 42;

fn describe(name: &str, front: &[Individual]) {
    let pts: Vec<Vec<f64>> = front
        .iter()
        .map(|m| {
            let (cl, p) = DrivableLoadProblem::to_paper_axes(m.objectives());
            vec![cl, p * 1e3]
        })
        .collect();
    let hv = DrivableLoadProblem::paper_hypervolume(front);
    let occupancy = if pts.is_empty() {
        0.0
    } else {
        bin_occupancy(&pts, 0, 0.0, 5.0, 10)
    };
    println!(
        "{name:>8}: {:3} designs | hypervolume {hv:6.2} | load-axis occupancy {occupancy:.2} | spread {:.2}",
        front.len(),
        spread(&pts),
    );
}

fn main() -> Result<(), OptimizeError> {
    let problem = DrivableLoadProblem::new(Spec::featured());
    let (lo, hi) = DrivableLoadProblem::slice_range();

    println!("integrator sizing, {POP} individuals x {GENS} generations, seed {SEED}\n");

    // The paper's TPG baseline: the same engine with a single partition
    // (pure global competition, rank-based selection).
    let only_global = Sacga::new(
        &problem,
        SacgaConfig::builder()
            .population_size(POP)
            .generations(GENS)
            .partitions(1)
            .phase1_max(60)
            .slice_range(lo, hi)
            .build()?,
    )
    .run_seeded(SEED)?;
    describe("TPG", &only_global.front);

    // Textbook NSGA-II, the modern reference baseline.
    let nsga2 = Nsga2::new(
        &problem,
        Nsga2Config::builder()
            .population_size(POP)
            .generations(GENS)
            .build()?,
    )
    .run(SEED)?;
    describe("NSGA-II", &nsga2.front);

    let sacga = Sacga::new(
        &problem,
        SacgaConfig::builder()
            .population_size(POP)
            .generations(GENS)
            .partitions(8)
            .phase1_max(60)
            .slice_range(lo, hi)
            .build()?,
    )
    .run_seeded(SEED)?;
    describe("SACGA", &sacga.front);

    let span = (GENS - 60) / 7;
    let mesacga = Mesacga::new(
        &problem,
        MesacgaConfig::builder()
            .population_size(POP)
            .phase1_max(60)
            .phases(
                [20, 13, 8, 5, 3, 2, 1]
                    .into_iter()
                    .map(|m| PhaseSpec::new(m, span))
                    .collect(),
            )
            .slice_range(lo, hi)
            .build()?,
    )
    .run_seeded(SEED)?;
    describe("MESACGA", &mesacga.front);

    println!(
        "\n(lower hypervolume and higher occupancy are better; the paper's\n\
         trend is MESACGA >= SACGA >= TPG for long runs — on this substrate\n\
         the partitioned algorithms reliably out-cover the rank-based\n\
         Only-Global baseline, while textbook NSGA-II holds its own through\n\
         crowding; see EXPERIMENTS.md)"
    );
    Ok(())
}
