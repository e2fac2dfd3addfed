//! The unified run outcome shared by every optimizer in the workspace.
//!
//! Historically each run loop returned its own result struct (`RunResult`
//! for NSGA-II, `SacgaResult`, `MesacgaResult`, `IslandResult`), all
//! carrying the same core payload — final population, feasible front,
//! generation count, engine stats — plus one or two loop-specific
//! extras. [`RunOutcome`] collapses them into a single type: the
//! loop-specific extras ([`gen_t`](RunOutcome::gen_t),
//! [`phase_fronts`](RunOutcome::phase_fronts),
//! [`migrations`](RunOutcome::migrations)) take their neutral value for
//! algorithms they do not apply to, so cross-algorithm comparison code
//! handles one shape.
//!
//! [`RunStatus`] is the bounded-run counterpart: either a completed
//! [`RunOutcome`] or a suspension checkpoint, generic over the
//! checkpoint type so each resumable algorithm plugs in its own.

use crate::individual::Individual;
use engine::EngineStats;

/// Per-generation statistics recorded by every run loop.
///
/// The phase/temperature/promotion fields follow SACGA semantics; the
/// structured loop (the cellular GA, the island model and NSGA-II), which
/// has no annealed promotion, records phase 2 (pure global competition)
/// and temperature 1 for every generation, and counts the members that
/// migrated as promoted (always zero for NSGA-II's single cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationStats {
    /// Generation index (0 = initial population).
    pub generation: usize,
    /// 1 = pure local phase, 2 = annealed/global phase.
    pub phase: u8,
    /// Annealing temperature (∞ during phase I, 1 for purely global
    /// loops).
    pub temperature: f64,
    /// How many locally superior solutions were promoted this generation.
    pub promoted: usize,
    /// Feasible individuals in the population.
    pub feasible: usize,
    /// Population size after survivor selection.
    pub population: usize,
}

/// Outcome of a completed optimizer run: final population and its
/// feasible non-dominated front, per-generation history, and the engine
/// counters ([`stats`](RunOutcome::stats); `stats.evaluations` counts the
/// objective evaluations performed).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Final population (globally ranked and crowded).
    pub population: Vec<Individual>,
    /// Feasible, globally non-dominated front of the final population.
    pub front: Vec<Individual>,
    /// Generations executed.
    pub generations: usize,
    /// Length of the pure-local phase I (0 for algorithms without one).
    pub gen_t: usize,
    /// Per-generation statistics, including the initial population
    /// (generation 0).
    pub history: Vec<GenerationStats>,
    /// Feasible global front at the end of each MESACGA phase, in phase
    /// order (empty for single-phase algorithms).
    pub phase_fronts: Vec<Vec<Individual>>,
    /// Migration events performed (cellular GA, island model included;
    /// 0 elsewhere).
    pub migrations: usize,
    /// Evaluation-engine instrumentation (batching, caching, timing,
    /// fault counters).
    pub stats: EngineStats,
}

impl RunOutcome {
    /// Objective vectors of the front.
    pub fn front_objectives(&self) -> Vec<Vec<f64>> {
        self.front.iter().map(|m| m.objectives().to_vec()).collect()
    }
}

/// Outcome of a bounded run: finished within the stop bound, or
/// suspended at a generation boundary with a resumable checkpoint of
/// type `C`.
#[derive(Debug, Clone)]
pub enum RunStatus<C> {
    /// The run finished before reaching the stop bound.
    Complete(Box<RunOutcome>),
    /// The run was suspended; resume through the algorithm's
    /// `Optimizer::resume` implementation.
    Suspended(Box<C>),
}

impl<C> RunStatus<C> {
    /// Whether the run completed.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunStatus::Complete(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_status_reports_completion() {
        let outcome = RunOutcome {
            population: vec![],
            front: vec![],
            generations: 0,
            gen_t: 0,
            history: vec![],
            phase_fronts: vec![],
            migrations: 0,
            stats: EngineStats::default(),
        };
        let complete: RunStatus<()> = RunStatus::Complete(Box::new(outcome));
        assert!(complete.is_complete());
        let suspended: RunStatus<()> = RunStatus::Suspended(Box::new(()));
        assert!(!suspended.is_complete());
    }
}
