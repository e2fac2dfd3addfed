//! NSGA-II, the paper's TPG baseline, as the one-cell preset of the
//! cellular loop.
//!
//! A cellular run on one fully-connected cell with closed mating is
//! NSGA-II: each generation the cell draws both parents of every pair by
//! crowded binary tournament from the whole population, breeds the full
//! offspring batch, drains it from the evaluation session and keeps the
//! best half of parents plus offspring by constrained non-dominated
//! sorting and crowding, drawing from the RNG in NSGA-II's order. It is
//! the panmictic end of the cell-to-island continuum of
//! [`cellular`](crate::cellular), whose other named preset is the
//! [`island`](crate::island) model.
//!
//! So there is no NSGA-II loop: [`Nsga2`] keeps its configuration type,
//! and its [`Optimizer`] implementation builds the one-cell
//! [`CellularConfig`] and delegates to [`CellularGa`]. NSGA-II runs
//! therefore suspend as `cellular-checkpoint v1` and evaluate inside one
//! whole-run session.

use crate::cellular::{CellularConfig, CellularGa};
use crate::checkpoint::CellularCheckpoint;
use crate::telemetry::{Optimizer, Sink};
use crate::topology::Topology;
use moea::nsga2::{Nsga2, Nsga2Config};
use moea::problem::Problem;
use moea::{OptimizeError, RunOutcome, RunStatus};

/// The one-cell preset of an NSGA-II configuration: the whole
/// population in one fully-connected cell, closed mating, and the
/// configuration's variation override and engine setup.
fn one_cell_config(config: &Nsga2Config) -> Result<CellularConfig, OptimizeError> {
    let mut builder = CellularConfig::builder()
        .population_size(config.population_size())
        .generations(config.generations())
        .topology(Topology::FullyConnected { cells: 1 })
        .openness(0.0)
        .engine_setup(config.engine_setup().clone());
    if let Some(variation) = config.variation() {
        builder = builder.variation(variation);
    }
    builder.build()
}

/// The cellular loop on the one-cell preset of `tpg`.
fn one_cell<P: Problem>(tpg: &Nsga2<P>) -> Result<CellularGa<&P>, OptimizeError> {
    Ok(CellularGa::new(
        tpg.problem(),
        one_cell_config(tpg.config())?,
    ))
}

/// NSGA-II through the unified API: every entry point runs the cellular
/// loop on the one-cell preset.
///
/// # Examples
///
/// ```
/// use sacga::prelude::*;
/// use moea::nsga2::{Nsga2, Nsga2Config};
/// use moea::problems::Schaffer;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let config = Nsga2Config::builder()
///     .population_size(40)
///     .generations(30)
///     .build()?;
/// let tpg = Nsga2::new(Schaffer::new(), config);
/// let RunStatus::Suspended(checkpoint) = tpg.run_until(42, 12)? else {
///     panic!("a 30-generation run suspends at generation 12");
/// };
/// let resumed = tpg.resume(&checkpoint)?;
/// assert_eq!(resumed.front_objectives(), tpg.run(42)?.front_objectives());
/// # Ok(())
/// # }
/// ```
impl<P: Problem + Sync> Optimizer for Nsga2<P> {
    type Checkpoint = CellularCheckpoint;

    fn algorithm(&self) -> &'static str {
        "nsga2"
    }

    fn run_with(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError> {
        one_cell(self)?.run_with(seed, sink)
    }

    fn run_until_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<CellularCheckpoint>, OptimizeError> {
        one_cell(self)?.run_until_with(seed, stop_after, sink)
    }

    fn resume_with(
        &self,
        checkpoint: &CellularCheckpoint,
        sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError> {
        one_cell(self)?.resume_with(checkpoint, sink)
    }

    fn resume_until_with(
        &self,
        checkpoint: &CellularCheckpoint,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<CellularCheckpoint>, OptimizeError> {
        one_cell(self)?.resume_until_with(checkpoint, stop_after, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{MemorySink, RunEvent};
    use moea::problems::{Schaffer, Zdt1};
    use moea::EngineSetup;

    fn config(population: usize, generations: usize) -> Nsga2Config {
        Nsga2Config::builder()
            .population_size(population)
            .generations(generations)
            .build()
            .unwrap()
    }

    #[test]
    fn the_preset_is_one_closed_fully_connected_cell() {
        let cellular = CellularConfig::builder()
            .population_size(20)
            .generations(10)
            .topology(Topology::FullyConnected { cells: 1 })
            .build()
            .unwrap();
        assert_eq!(one_cell_config(&config(20, 10)).unwrap(), cellular);
        let tpg = Nsga2::new(Schaffer::new(), config(20, 10));
        assert_eq!(tpg.algorithm(), "nsga2");
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let a = Nsga2::new(Schaffer::new(), config(20, 10)).run(7).unwrap();
        let b = Nsga2::new(Schaffer::new(), config(20, 10)).run(7).unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Nsga2::new(Schaffer::new(), config(20, 10)).run(7).unwrap();
        let b = Nsga2::new(Schaffer::new(), config(20, 10)).run(8).unwrap();
        assert_ne!(a.front_objectives(), b.front_objectives());
    }

    #[test]
    fn evaluation_budget_accounted() {
        let r = Nsga2::new(Schaffer::new(), config(10, 5)).run(1).unwrap();
        assert_eq!(r.stats.evaluations, 10 + 5 * 10);
        assert_eq!(r.generations, 5);
        assert_eq!(r.migrations, 0);
    }

    #[test]
    fn schaffer_converges_near_true_front() {
        // SCH true front: f2 = (sqrt(f1) - 2)^2 for f1 in [0,4].
        let r = Nsga2::new(Schaffer::new(), config(60, 60)).run(42).unwrap();
        assert!(r.front.len() > 10);
        for m in &r.front {
            let f1 = m.objective(0);
            let f2 = m.objective(1);
            let expected = (f1.sqrt() - 2.0).powi(2);
            // Relative tolerance: the front is steep near f1 = 0, where a
            // tiny gene offset moves f2 a lot.
            assert!(
                (f2 - expected).abs() < 0.05 + 0.1 * (1.0 + expected),
                "point ({f1}, {f2}) too far from true front ({expected})"
            );
        }
    }

    #[test]
    fn zdt1_improves_over_generations() {
        use moea::hypervolume::hypervolume_2d;
        let problem = Zdt1::new(8);
        let to_pts = |r: &RunOutcome| -> Vec<[f64; 2]> {
            r.front
                .iter()
                .map(|m| [m.objective(0), m.objective(1)])
                .collect()
        };
        let short = Nsga2::new(&problem, config(40, 5)).run(3).unwrap();
        let long = Nsga2::new(&problem, config(40, 80)).run(3).unwrap();
        let hv_short = hypervolume_2d(&to_pts(&short), [1.1, 11.0]);
        let hv_long = hypervolume_2d(&to_pts(&long), [1.1, 11.0]);
        assert!(
            hv_long > hv_short,
            "hypervolume should improve: {hv_short} -> {hv_long}"
        );
    }

    #[test]
    fn trace_sees_every_generation() {
        let mut sink = MemorySink::new();
        let r = Nsga2::new(Schaffer::new(), config(8, 4))
            .run_with(1, &mut sink)
            .unwrap();
        let seen: Vec<(usize, usize, u64)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                RunEvent::GenerationEnd {
                    generation,
                    population,
                    evaluations,
                    ..
                } => Some((*generation, *population, *evaluations)),
                _ => None,
            })
            .collect();
        assert_eq!(
            seen.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert!(seen.iter().all(|&(_, n, _)| n == 8));
        // Cumulative evaluation counters are non-decreasing and end at
        // the run total.
        assert!(seen.windows(2).all(|w| w[0].2 <= w[1].2));
        assert_eq!(seen.last().unwrap().2, r.stats.evaluations);
        // History holds the initial population and every generation.
        assert_eq!(r.history.len(), 5);
        assert!(r.history.iter().all(|h| h.phase == 2 && h.promoted == 0));
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let tpg = Nsga2::new(Schaffer::new(), config(16, 6));
        let plain = tpg.run(11).unwrap();
        let traced = tpg.run_with(11, &mut MemorySink::new()).unwrap();
        assert_eq!(plain.front_objectives(), traced.front_objectives());
        assert_eq!(plain.history, traced.history);
    }

    #[test]
    fn trace_surfaces_fault_events() {
        let cfg = Nsga2Config::builder()
            .population_size(16)
            .generations(6)
            .engine_setup(
                EngineSetup::new()
                    .fault_policy(engine::FaultPolicy::tolerant(3))
                    .inject_faults(engine::FaultPlan::seeded(5).panics(0.1)),
            )
            .build()
            .unwrap();
        let mut sink = MemorySink::new();
        let r = Nsga2::new(Schaffer::new(), cfg)
            .run_with(9, &mut sink)
            .unwrap();
        let fault_total = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::EvaluationFault { .. }))
            .count();
        assert_eq!(fault_total as u64, r.stats.recovered + r.stats.quarantined);
        assert!(fault_total > 0);
    }

    #[test]
    fn fault_injected_run_matches_fault_free_front() {
        let base = Nsga2Config::builder().population_size(24).generations(12);
        let clean_cfg = base.clone().build().unwrap();
        let faulty_cfg = base
            .engine_setup(
                EngineSetup::new()
                    .fault_policy(engine::FaultPolicy::tolerant(3))
                    .inject_faults(engine::FaultPlan::seeded(5).panics(0.05).nonfinite(0.05)),
            )
            .build()
            .unwrap();
        let clean = Nsga2::new(Schaffer::new(), clean_cfg).run(9).unwrap();
        let faulty = Nsga2::new(Schaffer::new(), faulty_cfg).run(9).unwrap();
        assert_eq!(clean.front_objectives(), faulty.front_objectives());
        assert!(faulty.stats.failures > 0);
        assert_eq!(
            faulty.stats.failures,
            faulty.stats.injected_panics + faulty.stats.injected_nonfinite
        );
        assert_eq!(faulty.stats.recovered, faulty.stats.failures);
        assert_eq!(clean.stats.failures, 0);
    }

    #[test]
    fn aborting_fault_policy_propagates_typed_error() {
        let cfg = Nsga2Config::builder()
            .population_size(8)
            .generations(2)
            .engine_setup(
                EngineSetup::new().inject_faults(engine::FaultPlan::seeded(1).panics(1.0)),
            )
            .build()
            .unwrap();
        let err = Nsga2::new(Schaffer::new(), cfg).run(1).unwrap_err();
        match err {
            OptimizeError::EvaluationFailed(f) => {
                assert_eq!(f.kind, engine::FaultKind::Panic);
            }
            other => panic!("expected EvaluationFailed, got {other:?}"),
        }
    }

    #[test]
    fn front_members_are_rank_zero_feasible() {
        let r = Nsga2::new(Schaffer::new(), config(16, 8)).run(2).unwrap();
        assert!(r.front.iter().all(|m| m.rank == 0 && m.is_feasible()));
    }
}
