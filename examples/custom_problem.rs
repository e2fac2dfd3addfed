//! Plug your own multi-objective problem into SACGA: the algorithms are
//! generic over [`moea::Problem`], so anything with box-bounded real
//! variables, minimized objectives and violation-style constraints works.
//!
//! This example defines a small constrained welded-beam-style problem from
//! scratch and explores it with SACGA and NSGA-II. Run with:
//!
//! ```text
//! cargo run --release --example custom_problem
//! ```

use analog_dse::moea::evaluation::{Evaluation, ViolationBuilder};
use analog_dse::moea::nsga2::{Nsga2, Nsga2Config};
use analog_dse::moea::problem::{Bounds, Problem};
use analog_dse::moea::OptimizeError;
use analog_dse::sacga::sacga::{Sacga, SacgaConfig};
use analog_dse::sacga::telemetry::Optimizer;

/// A two-bar truss: minimize structural volume and stress subject to a
/// stress cap on each bar (a classic small constrained biobjective).
///
/// Variables: `x1, x2` = cross-section areas (1e-5..1e-2 m²),
/// `y` = joint height (1..3 m).
struct TwoBarTruss {
    bounds: Bounds,
}

impl TwoBarTruss {
    fn new() -> Result<Self, OptimizeError> {
        Ok(TwoBarTruss {
            bounds: Bounds::new(vec![1e-5, 1e-5, 1.0], vec![1e-2, 1e-2, 3.0])?,
        })
    }
}

impl Problem for TwoBarTruss {
    fn name(&self) -> &str {
        "two-bar-truss"
    }
    fn bounds(&self) -> &Bounds {
        &self.bounds
    }
    fn num_objectives(&self) -> usize {
        2
    }
    fn num_constraints(&self) -> usize {
        2
    }
    fn evaluate(&self, x: &[f64]) -> Evaluation {
        let (a1, a2, y) = (x[0], x[1], x[2]);
        let volume = a1 * (16.0 + y * y).sqrt() + a2 * (1.0 + y * y).sqrt();
        let sigma1 = 20.0 * (16.0 + y * y).sqrt() / (17.0 * y * a1);
        let sigma2 = 80.0 * (1.0 + y * y).sqrt() / (17.0 * y * a2);
        let stress = sigma1.max(sigma2);
        let mut v = ViolationBuilder::new();
        v.at_most(sigma1, 1e5);
        v.at_most(sigma2, 1e5);
        Evaluation::new(vec![volume, stress], v.finish())
    }
}

fn main() -> Result<(), OptimizeError> {
    let problem = TwoBarTruss::new()?;

    let nsga2 = Nsga2::new(
        &problem,
        Nsga2Config::builder()
            .population_size(60)
            .generations(120)
            .build()?,
    )
    .run(3)?;

    // Partition along the volume objective; range derived from the
    // initial population because no a-priori range is known.
    let sacga = Sacga::new(
        &problem,
        SacgaConfig::builder()
            .population_size(60)
            .generations(120)
            .partitions(6)
            .slice_objective(0)
            .build()?,
    )
    .run_seeded(3)?;

    for (name, front) in [("NSGA-II", &nsga2.front), ("SACGA", &sacga.front)] {
        let mut rows: Vec<(f64, f64)> = front
            .iter()
            .map(|m| (m.objective(0), m.objective(1)))
            .collect();
        rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        println!("{name}: {} non-dominated feasible designs", rows.len());
        for (v, s) in rows.iter().step_by((rows.len() / 8).max(1)) {
            println!("  volume {v:9.5} m^3   stress {s:10.1} Pa");
        }
    }
    Ok(())
}
