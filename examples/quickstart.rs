//! Quickstart: size the CDS switched-capacitor integrator for a diverse
//! power-vs-load design surface with SACGA.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use analog_dse::circuits::{DrivableLoadProblem, Spec};
use analog_dse::moea::OptimizeError;
use analog_dse::sacga::sacga::{Sacga, SacgaConfig};

fn main() -> Result<(), OptimizeError> {
    // The paper's featured specification: DR >= 96 dB, OR >= 1.4 V,
    // ST <= 0.24 us, SE <= 7e-4, robustness >= 0.85.
    let problem = DrivableLoadProblem::new(Spec::featured());

    // An 8-partition SACGA over the 0-5 pF load axis. Small budget so the
    // example finishes in ~20 s; the bench harness runs the full budgets.
    let (lo, hi) = DrivableLoadProblem::slice_range();
    let config = SacgaConfig::builder()
        .population_size(60)
        .generations(150)
        .partitions(8)
        .phase1_max(40)
        .slice_range(lo, hi)
        .build()?;

    println!("running SACGA (60 x 150) on the integrator sizing problem...");
    let result = Sacga::new(&problem, config).run_seeded(42)?;

    println!(
        "phase I took {} generations; {} evaluations total",
        result.gen_t, result.stats.evaluations
    );
    println!("Pareto front ({} designs):", result.front.len());
    let mut rows: Vec<(f64, f64)> = result
        .front
        .iter()
        .map(|m| {
            let (cl_pf, p_w) = DrivableLoadProblem::to_paper_axes(m.objectives());
            (cl_pf, p_w * 1e3)
        })
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    println!("{:>12} {:>12}", "load (pF)", "power (mW)");
    for (cl, p) in &rows {
        println!("{cl:12.2} {p:12.3}");
    }
    let hv = DrivableLoadProblem::paper_hypervolume(&result.front);
    println!("\npaper hypervolume (0.1 mW * pF, lower is better): {hv:.2}");
    Ok(())
}
