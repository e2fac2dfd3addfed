//! The run frame both loops share: start-up, the checks on a resumed
//! state's members, the events of a generation boundary and the final
//! global competition.
//!
//! The partitioned loop of [`steady`](crate::steady) and the structured
//! loop of [`cellular`](crate::cellular) differ in how they breed and
//! select, not in how a run starts, reports a generation boundary or
//! ends. Those parts live here once:
//!
//! * [`check_problem`] and [`initial_population`]: a problem without
//!   objectives is refused, and the initial members are drawn, evaluated
//!   in one drain and checked against the problem's declared shape;
//! * [`restore`]: every member a checkpoint stores is checked against the
//!   problem before a resumed run touches it;
//! * [`Frame`]: the generation-boundary event contract. Fault episodes
//!   become [`RunEvent::EvaluationFault`]s of the generation that drained
//!   them, then the history row and the feasible global front become a
//!   [`RunEvent::GenerationEnd`], then the stage timer and the
//!   [`EngineStats::since`] delta become a [`RunEvent::StageTiming`]; a
//!   suspension records a [`RunEvent::CheckpointWritten`];
//! * [`finish`]: the final global competition into a [`RunOutcome`].

use crate::checkpoint::SavedIndividual;
use crate::telemetry::{EventKind, RunEvent, Sink};
use engine::{EngineStats, EvaluationSession, StageTimer};
use moea::individual::Individual;
use moea::operators::random_vector;
use moea::problem::Problem;
use moea::sorting::rank_and_crowd;
use moea::{Evaluation, GenerationStats, OptimizeError, RunOutcome};
use rand::rngs::StdRng;

/// Refuses a problem that declares no objectives.
pub(crate) fn check_problem<P: Problem>(problem: &P) -> Result<(), OptimizeError> {
    if problem.num_objectives() == 0 {
        return Err(OptimizeError::invalid_problem(
            "problem must declare at least one objective",
        ));
    }
    Ok(())
}

/// Draws `n` members uniformly within the problem's bounds (the RNG's
/// only use here), evaluates them through `session` in one drain, and
/// checks the first evaluation against the problem's declared objective
/// and constraint counts.
pub(crate) fn initial_population<P, F>(
    problem: &P,
    session: &mut EvaluationSession<'_, Evaluation, F>,
    rng: &mut StdRng,
    n: usize,
) -> Result<Vec<Individual>, OptimizeError>
where
    P: Problem,
    F: Fn(&[f64]) -> Evaluation + Sync,
{
    let bounds = problem.bounds();
    let genes: Vec<Vec<f64>> = (0..n).map(|_| random_vector(rng, bounds)).collect();
    for g in &genes {
        session.submit(g);
    }
    let evaluations = session.drain_all()?;
    let members: Vec<Individual> = genes
        .into_iter()
        .zip(evaluations)
        .map(|(genes, ev)| Individual::new(genes, ev))
        .collect();
    problem.check_evaluation(&members[0].evaluation)?;
    Ok(members)
}

/// Rebuilds stored members, checking each against `problem`: a gene
/// count other than the problem's variable count, or objective and
/// constraint counts other than it declares, make the checkpoint
/// invalid. Unchecked, a widened member would reach variation, which
/// indexes the bounds by gene.
pub(crate) fn restore<P: Problem>(
    problem: &P,
    saved: &[SavedIndividual],
) -> Result<Vec<Individual>, OptimizeError> {
    saved
        .iter()
        .map(|s| {
            if s.genes.len() != problem.num_variables() {
                return Err(OptimizeError::invalid_checkpoint(format!(
                    "stored member has {} genes, expected {}",
                    s.genes.len(),
                    problem.num_variables()
                )));
            }
            let member = s.to_individual();
            problem
                .check_evaluation(&member.evaluation)
                .map_err(|e| OptimizeError::invalid_checkpoint(format!("stored member: {e}")))?;
            Ok(member)
        })
        .collect()
}

/// The feasible members of a ranked population's first front.
pub(crate) fn feasible_front<'a>(
    ranked: impl IntoIterator<Item = &'a Individual>,
) -> impl Iterator<Item = &'a Individual> {
    ranked
        .into_iter()
        .filter(|m| m.rank == 0 && m.is_feasible())
}

/// Objective vectors of a ranked population's feasible first front.
fn front_objectives<'a>(ranked: impl IntoIterator<Item = &'a Individual>) -> Vec<Vec<f64>> {
    feasible_front(ranked)
        .map(|m| m.objectives().to_vec())
        .collect()
}

/// A copy of `members` after one global competition, leaving the run's
/// own ranks untouched.
pub(crate) fn ranked_copy<'a>(
    members: impl IntoIterator<Item = &'a Individual>,
) -> Vec<Individual> {
    let mut arena: Vec<Individual> = members.into_iter().cloned().collect();
    rank_and_crowd(&mut arena);
    arena
}

/// How far the ranks of the members a boundary reports reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ranks {
    /// Ranked against the whole population (a single cell): the front
    /// is read off the members.
    Global,
    /// Ranked within a partition or a cell: the front takes one global
    /// competition, run on a copy.
    Local,
}

/// The generation-boundary event contract of one drive segment, with the
/// stage timer that feeds it.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Per-stage wall-clock of the generation in progress; it records
    /// only when the sink wants [`EventKind::StageTiming`].
    pub(crate) timer: StageTimer,
    /// Engine counters at the previous boundary.
    stats_mark: EngineStats,
}

impl Frame {
    /// Opens a segment once its population stands, at `generation`. The
    /// fault episodes of the start-up evaluation become
    /// `EvaluationFault`s of generation 0; a resumed segment has evaluated
    /// nothing yet, so it reports nothing for the checkpoint generation,
    /// whose events belong to the segment that executed it.
    pub(crate) fn open<F>(
        sink: &mut dyn Sink,
        session: &mut EvaluationSession<'_, Evaluation, F>,
        generation: usize,
    ) -> Frame
    where
        F: Fn(&[f64]) -> Evaluation + Sync,
    {
        report_faults(sink, session, generation);
        Frame {
            timer: StageTimer::new(sink.wants(EventKind::StageTiming)),
            stats_mark: session.stats().clone(),
        }
    }

    /// Ends the generation `row` records: its fault episodes, then its
    /// `GenerationEnd` with the feasible global front of `members`, then
    /// its `StageTiming`.
    pub(crate) fn end_generation<'m, F>(
        &mut self,
        sink: &mut dyn Sink,
        session: &mut EvaluationSession<'_, Evaluation, F>,
        row: &GenerationStats,
        members: impl IntoIterator<Item = &'m Individual>,
        ranks: Ranks,
    ) where
        F: Fn(&[f64]) -> Evaluation + Sync,
    {
        report_faults(sink, session, row.generation);
        if sink.wants(EventKind::GenerationEnd) {
            let front = match ranks {
                Ranks::Global => front_objectives(members),
                Ranks::Local => front_objectives(&ranked_copy(members)),
            };
            sink.record(&RunEvent::GenerationEnd {
                generation: row.generation,
                phase: row.phase,
                temperature: row.temperature,
                promoted: row.promoted,
                feasible: row.feasible,
                population: row.population,
                evaluations: session.stats().evaluations,
                front,
            });
        }
        if self.timer.is_enabled() {
            let stages = self.timer.take();
            let delta = session.stats().since(&self.stats_mark);
            self.stats_mark = session.stats().clone();
            sink.record(&RunEvent::StageTiming {
                generation: row.generation,
                stages,
                candidates: delta.candidates,
                evaluations: delta.evaluations,
                cache_hits: delta.cache_hits,
            });
        }
    }

    /// Records the suspension at `generation`.
    pub(crate) fn suspend(&self, sink: &mut dyn Sink, generation: usize) {
        if sink.wants(EventKind::CheckpointWritten) {
            sink.record(&RunEvent::CheckpointWritten { generation });
        }
    }
}

/// Drains the session's resolved fault episodes into `EvaluationFault`
/// events of `generation`.
fn report_faults<F>(
    sink: &mut dyn Sink,
    session: &mut EvaluationSession<'_, Evaluation, F>,
    generation: usize,
) where
    F: Fn(&[f64]) -> Evaluation + Sync,
{
    let faults = session.take_fault_events();
    if sink.wants(EventKind::EvaluationFault) {
        for fault in faults {
            sink.record(&RunEvent::EvaluationFault {
                generation,
                kind: fault.kind,
                failures: fault.failures,
                resolution: fault.resolution,
            });
        }
    }
}

/// The final global competition: per the paper, the Global Pareto Front
/// is found by one global competition over the entire final population.
/// The loop-specific extras of the outcome take their neutral values.
pub(crate) fn finish(
    mut population: Vec<Individual>,
    generations: usize,
    history: Vec<GenerationStats>,
    stats: &EngineStats,
) -> RunOutcome {
    rank_and_crowd(&mut population);
    let front = feasible_front(&population).cloned().collect();
    RunOutcome {
        population,
        front,
        generations,
        gen_t: 0,
        history,
        phase_fronts: Vec::new(),
        migrations: 0,
        stats: stats.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cellular::{CellularConfig, CellularGa};
    use crate::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
    use crate::sacga::{Sacga, SacgaConfig};
    use crate::steady::{SteadyConfig, SteadySacga};
    use crate::telemetry::Optimizer;
    use crate::topology::Topology;
    use moea::problems::Schaffer;
    use moea::RunStatus;

    /// Gives every member one gene more than the problem has.
    fn widen(members: &mut [SavedIndividual]) {
        for m in members {
            m.genes.push(m.genes[0]);
        }
    }

    fn suspended<C>(status: RunStatus<C>) -> C {
        match status {
            RunStatus::Suspended(cp) => *cp,
            RunStatus::Complete(_) => panic!("the run must suspend"),
        }
    }

    fn is_invalid_checkpoint<T: std::fmt::Debug>(result: Result<T, OptimizeError>) -> bool {
        matches!(result, Err(OptimizeError::InvalidCheckpoint { .. }))
    }

    #[test]
    fn widened_members_resume_to_invalid_checkpoint() {
        let sacga = Sacga::new(
            Schaffer::new(),
            SacgaConfig::builder()
                .population_size(16)
                .generations(8)
                .partitions(4)
                .build()
                .unwrap(),
        );
        let mut cp = suspended(sacga.run_until(7, 3).unwrap());
        cp.state.partitions.iter_mut().for_each(|p| widen(p));
        assert!(is_invalid_checkpoint(sacga.resume(&cp)));

        let steady = SteadySacga::new(
            Schaffer::new(),
            SteadyConfig::builder()
                .population_size(16)
                .generations(8)
                .partitions(4)
                .window(24)
                .quantum(4)
                .build()
                .unwrap(),
        );
        let fresh = suspended(steady.run_until(7, 3).unwrap());
        assert!(!fresh.pending.is_empty());
        let mut cp = fresh.clone();
        cp.state.partitions.iter_mut().for_each(|p| widen(p));
        widen(&mut cp.pending);
        assert!(is_invalid_checkpoint(steady.resume(&cp)));
        // The look-ahead alone is checked too.
        let mut cp = fresh;
        widen(&mut cp.pending);
        assert!(is_invalid_checkpoint(steady.resume(&cp)));

        let cellular = CellularGa::new(
            Schaffer::new(),
            CellularConfig::builder()
                .population_size(16)
                .generations(8)
                .topology(Topology::Ring {
                    cells: 4,
                    radius: 1,
                })
                .openness(0.3)
                .build()
                .unwrap(),
        );
        let mut cp = suspended(cellular.run_until(7, 3).unwrap());
        cp.cells.iter_mut().for_each(|c| widen(c));
        assert!(is_invalid_checkpoint(cellular.resume(&cp)));
    }

    #[test]
    fn misshapen_phase_fronts_and_evaluations_are_invalid_checkpoints() {
        let mesacga = Mesacga::new(
            Schaffer::new(),
            MesacgaConfig::builder()
                .population_size(16)
                .phase1_max(2)
                .phases(vec![PhaseSpec::new(4, 3), PhaseSpec::new(1, 3)])
                .build()
                .unwrap(),
        );
        let fresh = suspended(mesacga.run_until(7, 6).unwrap());
        assert!(!fresh.phase_fronts.is_empty());
        let mut cp = fresh.clone();
        cp.phase_fronts.iter_mut().for_each(|f| widen(f));
        assert!(is_invalid_checkpoint(mesacga.resume(&cp)));
        let mut cp = fresh.clone();
        cp.state.partitions[0][0].objectives.pop();
        assert!(is_invalid_checkpoint(mesacga.resume(&cp)));
        let mut cp = fresh;
        cp.state.partitions[0][0].violations.push(0.0);
        assert!(is_invalid_checkpoint(mesacga.resume(&cp)));
    }
}
