//! Island-model multi-objective GA — the diversity-preservation
//! alternative the paper positions itself against.
//!
//! Sec. 4.1: *"A known method of diversity preservation is parallel
//! population GA with inter-population migration controlled in a tribe or
//! island based framework \[7\], which can be extended for Multi-objective
//! GA. However, in this work, we try to establish that this objective can
//! be accomplished by a simple modification in the traditional
//! single-population GA."*
//!
//! This module provides that baseline so the claim can be tested: `k`
//! islands evolve independently (each an elitist constrained-dominance GA
//! on its own subpopulation, *genotypically* separated rather than
//! objective-space partitioned), with periodic ring migration of each
//! island's best individuals. Compare against SACGA with the
//! `ablation_competition_modes` harness or your own experiments.

use crate::telemetry::{EventKind, NoCheckpoint, NullSink, Optimizer, RunEvent, Sink};
use engine::{EvaluatorKind, Stage, StageTimer};
use moea::individual::Individual;
use moea::operators::{random_vector, Variation};
use moea::problem::Problem;
use moea::selection::binary_tournament;
use moea::sorting::{environmental_selection, rank_and_crowd};
use moea::{GenerationStats, OptimizeError, RunOutcome, RunStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of an island-model run. Build with
/// [`IslandConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct IslandConfig {
    population_size: usize,
    generations: usize,
    islands: usize,
    migration_interval: usize,
    migrants: usize,
    variation: Option<Variation>,
    exec: moea::setup::EngineSetup,
}

impl IslandConfig {
    /// Starts a configuration builder.
    pub fn builder() -> IslandConfigBuilder {
        IslandConfigBuilder::default()
    }

    /// Total population across all islands.
    pub fn population_size(&self) -> usize {
        self.population_size
    }

    /// Number of islands.
    pub fn islands(&self) -> usize {
        self.islands
    }

    /// Generation budget.
    pub fn generations(&self) -> usize {
        self.generations
    }
}

/// Builder for [`IslandConfig`].
#[derive(Debug, Clone)]
pub struct IslandConfigBuilder {
    population_size: usize,
    generations: usize,
    islands: usize,
    migration_interval: usize,
    migrants: usize,
    variation: Option<Variation>,
    exec: moea::setup::EngineSetup,
}

impl Default for IslandConfigBuilder {
    fn default() -> Self {
        IslandConfigBuilder {
            population_size: 100,
            generations: 250,
            islands: 5,
            migration_interval: 20,
            migrants: 2,
            variation: None,
            exec: moea::setup::EngineSetup::new(),
        }
    }
}

impl IslandConfigBuilder {
    /// Sets the total population (split evenly across islands).
    pub fn population_size(mut self, n: usize) -> Self {
        self.population_size = n;
        self
    }

    /// Sets the generation budget.
    pub fn generations(mut self, n: usize) -> Self {
        self.generations = n;
        self
    }

    /// Sets the island count (≥ 1).
    pub fn islands(mut self, k: usize) -> Self {
        self.islands = k;
        self
    }

    /// Sets how many generations pass between migrations (≥ 1).
    pub fn migration_interval(mut self, g: usize) -> Self {
        self.migration_interval = g;
        self
    }

    /// Sets how many individuals migrate per island per event.
    pub fn migrants(mut self, m: usize) -> Self {
        self.migrants = m;
        self
    }

    /// Overrides the variation operators.
    pub fn variation(mut self, v: Variation) -> Self {
        self.variation = Some(v);
        self
    }

    /// Replaces the whole engine-knob bundle at once (see
    /// [`moea::EngineSetup`]); the individual knob methods below
    /// delegate to the same bundle.
    pub fn engine_setup(mut self, exec: moea::setup::EngineSetup) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the candidate-evaluation strategy (default: serial).
    pub fn evaluator(mut self, evaluator: impl Into<EvaluatorKind>) -> Self {
        self.exec = self.exec.evaluator(evaluator);
        self
    }

    /// Enables evaluation memoization with room for `capacity` entries
    /// (default: disabled).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.exec = self.exec.cache_capacity(capacity);
        self
    }

    /// Sets the memoization quantization grid (must be positive).
    pub fn cache_grid(mut self, grid: f64) -> Self {
        self.exec = self.exec.cache_grid(grid);
        self
    }

    /// Sets the fault-handling policy for candidate evaluation: retry
    /// budget, non-finite quarantine, and exhaustion behavior.
    pub fn fault_policy(mut self, fault: engine::FaultPolicy) -> Self {
        self.exec = self.exec.fault_policy(fault);
        self
    }

    /// Enables deterministic fault injection with the given plan (a
    /// testing/chaos harness — injected faults are reproducible per
    /// candidate).
    pub fn inject_faults(mut self, plan: engine::FaultPlan) -> Self {
        self.exec = self.exec.inject_faults(plan);
        self
    }

    /// Attaches a live [`engine::EngineMetrics`] bundle: the engine
    /// mirrors its counters and latency/batch-size histograms into the
    /// bundle's registry as evaluation happens. Observation only — an
    /// instrumented run is bit-identical to a bare one.
    pub fn metrics(mut self, metrics: engine::EngineMetrics) -> Self {
        self.exec = self.exec.metrics(metrics);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidConfig`] when islands is zero, the
    /// per-island population would drop below 4, the interval is zero, or
    /// migrants exceed the island size.
    pub fn build(self) -> Result<IslandConfig, OptimizeError> {
        if self.islands == 0 {
            return Err(OptimizeError::invalid_config(
                "islands",
                "must be at least 1",
            ));
        }
        if self.generations == 0 {
            return Err(OptimizeError::invalid_config(
                "generations",
                "must be at least 1",
            ));
        }
        let per_island = self.population_size / self.islands;
        if per_island < 4 {
            return Err(OptimizeError::invalid_config(
                "population_size",
                format!(
                    "per-island population must be at least 4, got {per_island} \
                     ({} over {} islands)",
                    self.population_size, self.islands
                ),
            ));
        }
        if self.migration_interval == 0 {
            return Err(OptimizeError::invalid_config(
                "migration_interval",
                "must be at least 1",
            ));
        }
        if self.migrants >= per_island {
            return Err(OptimizeError::invalid_config(
                "migrants",
                format!("must be fewer than the island size {per_island}"),
            ));
        }
        Ok(IslandConfig {
            population_size: self.population_size,
            generations: self.generations,
            islands: self.islands,
            migration_interval: self.migration_interval,
            migrants: self.migrants,
            variation: self.variation,
            exec: self.exec,
        })
    }
}

/// The island-model multi-objective GA.
///
/// # Examples
///
/// ```
/// use sacga::island::{IslandGa, IslandConfig};
/// use moea::problems::Schaffer;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let config = IslandConfig::builder()
///     .population_size(40)
///     .generations(30)
///     .islands(4)
///     .build()?;
/// let result = IslandGa::new(Schaffer::new(), config).run_seeded(1)?;
/// assert!(!result.front.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IslandGa<P: Problem> {
    problem: P,
    config: IslandConfig,
}

impl<P: Problem> IslandGa<P> {
    /// Creates an optimizer for `problem` with `config`.
    pub fn new(problem: P, config: IslandConfig) -> Self {
        IslandGa { problem, config }
    }

    /// Runs with a seeded RNG.
    ///
    /// # Errors
    ///
    /// Propagates problem-definition errors discovered at start-up and
    /// [`OptimizeError::EvaluationFailed`] when a candidate evaluation
    /// exhausts the fault policy's retry budget with an aborting policy.
    pub fn run_seeded(&self, seed: u64) -> Result<RunOutcome, OptimizeError>
    where
        P: Sync,
    {
        self.drive(seed, &mut NullSink)
    }

    /// The single run loop behind both entry points. Event emission reads
    /// state but never consumes RNG, so seeded runs are bit-identical with
    /// or without a sink.
    fn drive(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError>
    where
        P: Sync,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        if self.problem.num_objectives() == 0 {
            return Err(OptimizeError::invalid_problem(
                "problem must declare at least one objective",
            ));
        }
        let bounds = self.problem.bounds().clone();
        let variation = self
            .config
            .variation
            .unwrap_or_else(|| Variation::standard(bounds.len()));
        let per_island = self.config.population_size / self.config.islands;
        // One shared engine: the memoization cache spans the archipelago.
        let mut exec = self
            .config
            .exec
            .build_engine(self.problem.cache_canonicalizer());
        let eval_fn = |genes: &[f64]| self.problem.evaluate(genes);

        // Draw every island's genes first (sole RNG consumer), then
        // batch-evaluate the whole archipelago in one engine call.
        let init_genes: Vec<Vec<f64>> = (0..self.config.islands * per_island)
            .map(|_| random_vector(&mut rng, &bounds))
            .collect();
        let init_evals = exec.try_evaluate_batch(&init_genes, &eval_fn)?;
        let mut members = init_genes
            .into_iter()
            .zip(init_evals)
            .map(|(genes, ev)| Individual::new(genes, ev));
        let mut islands: Vec<Vec<Individual>> = (0..self.config.islands)
            .map(|_| members.by_ref().take(per_island).collect())
            .collect();
        self.problem.check_evaluation(&islands[0][0].evaluation)?;
        for isl in &mut islands {
            rank_and_crowd(isl);
        }

        let want_fault = sink.wants(EventKind::EvaluationFault);
        let want_generation = sink.wants(EventKind::GenerationEnd);
        let want_promotion = sink.wants(EventKind::Promotion);
        let mut timer = StageTimer::new(sink.wants(EventKind::StageTiming));
        let mut stats_mark = exec.stats().clone();
        if want_fault {
            for fault in exec.take_fault_events() {
                sink.record(&RunEvent::EvaluationFault {
                    generation: 0,
                    kind: fault.kind,
                    failures: fault.failures,
                    resolution: fault.resolution,
                });
            }
        }

        let mut history = Vec::with_capacity(self.config.generations);
        let mut migrations = 0usize;
        for gen in 1..=self.config.generations {
            // Independent evolution on each island (µ+λ with crowded
            // tournament parents).
            for isl in islands.iter_mut() {
                timer.start(Stage::Variation);
                let mut child_genes: Vec<Vec<f64>> = Vec::with_capacity(per_island);
                while child_genes.len() < per_island {
                    let pa = binary_tournament(&mut rng, isl);
                    let pb = binary_tournament(&mut rng, isl);
                    let (c1, c2) =
                        variation.offspring(&mut rng, &isl[pa].genes, &isl[pb].genes, &bounds);
                    child_genes.push(c1);
                    if child_genes.len() < per_island {
                        child_genes.push(c2);
                    }
                }
                timer.start(Stage::Evaluation);
                let evals = exec.try_evaluate_batch(&child_genes, &eval_fn)?;
                timer.start(Stage::Selection);
                let offspring: Vec<Individual> = child_genes
                    .into_iter()
                    .zip(evals)
                    .map(|(genes, ev)| Individual::new(genes, ev))
                    .collect();
                let mut combined = std::mem::take(isl);
                combined.extend(offspring);
                *isl = environmental_selection(combined, per_island);
                timer.stop();
            }

            // Ring migration.
            timer.start(Stage::Promotion);
            let mut migrated = 0usize;
            if gen % self.config.migration_interval == 0 && self.config.islands > 1 {
                migrations += 1;
                let k = islands.len();
                let mut candidates = 0usize;
                let mut outgoing: Vec<Vec<Individual>> = Vec::with_capacity(k);
                for isl in &islands {
                    let rank0: Vec<&Individual> = isl.iter().filter(|m| m.rank == 0).collect();
                    candidates += if rank0.is_empty() {
                        isl.len()
                    } else {
                        rank0.len()
                    };
                    let mut picks = Vec::with_capacity(self.config.migrants);
                    for _ in 0..self.config.migrants {
                        let src = if rank0.is_empty() {
                            &isl[rng.gen_range(0..isl.len())]
                        } else {
                            rank0[rng.gen_range(0..rank0.len())]
                        };
                        picks.push(src.clone());
                    }
                    outgoing.push(picks);
                }
                for (i, picks) in outgoing.into_iter().enumerate() {
                    let dst = (i + 1) % k;
                    let isl = &mut islands[dst];
                    let mut combined = std::mem::take(isl);
                    combined.extend(picks);
                    *isl = environmental_selection(combined, per_island);
                }
                migrated = k * self.config.migrants;
                if want_promotion {
                    sink.record(&RunEvent::Promotion {
                        generation: gen,
                        promoted: migrated,
                        candidates,
                    });
                }
            }
            timer.stop();

            let feasible = islands.iter().flatten().filter(|m| m.is_feasible()).count();
            history.push(GenerationStats {
                generation: gen,
                phase: 2,
                temperature: 1.0,
                promoted: migrated,
                feasible,
                population: per_island * self.config.islands,
            });
            if want_fault {
                for fault in exec.take_fault_events() {
                    sink.record(&RunEvent::EvaluationFault {
                        generation: gen,
                        kind: fault.kind,
                        failures: fault.failures,
                        resolution: fault.resolution,
                    });
                }
            }
            if want_generation {
                sink.record(&RunEvent::GenerationEnd {
                    generation: gen,
                    phase: 2,
                    temperature: 1.0,
                    promoted: migrated,
                    feasible,
                    population: per_island * self.config.islands,
                    evaluations: exec.stats().evaluations,
                    front: merged_front_objectives(&islands),
                });
            }
            if timer.is_enabled() {
                let stages = timer.take();
                let delta = exec.stats().since(&stats_mark);
                stats_mark = exec.stats().clone();
                sink.record(&RunEvent::StageTiming {
                    generation: gen,
                    stages,
                    candidates: delta.candidates,
                    evaluations: delta.evaluations,
                    cache_hits: delta.cache_hits,
                });
            }
        }

        // Final global competition over the merged archipelago.
        let mut population: Vec<Individual> = islands.into_iter().flatten().collect();
        rank_and_crowd(&mut population);
        let front = population
            .iter()
            .filter(|m| m.rank == 0 && m.is_feasible())
            .cloned()
            .collect();
        let stats = exec.into_stats();
        Ok(RunOutcome {
            population,
            front,
            evaluations: stats.evaluations as usize,
            generations: self.config.generations,
            gen_t: 0,
            history,
            phase_fronts: Vec::new(),
            migrations,
            stats,
        })
    }
}

/// Feasible globally non-dominated front of the merged archipelago,
/// computed on a clone so ranking never disturbs the islands. Shared
/// with the cellular loop, whose cells are islands by another name.
pub(crate) fn merged_front_objectives(islands: &[Vec<Individual>]) -> Vec<Vec<f64>> {
    let mut pop: Vec<Individual> = islands.iter().flatten().cloned().collect();
    rank_and_crowd(&mut pop);
    pop.iter()
        .filter(|m| m.rank == 0 && m.is_feasible())
        .map(|m| m.objectives().to_vec())
        .collect()
}

/// The unified run API. The island model cannot suspend, so
/// [`Optimizer::Checkpoint`] is the uninhabited [`NoCheckpoint`] and
/// bounded runs are rejected.
impl<P: Problem + Sync> Optimizer for IslandGa<P> {
    type Checkpoint = NoCheckpoint;

    fn algorithm(&self) -> &'static str {
        "island"
    }

    fn run_with(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError> {
        self.drive(seed, sink)
    }

    fn run_until_with(
        &self,
        _seed: u64,
        _stop_after: usize,
        _sink: &mut dyn Sink,
    ) -> Result<RunStatus<NoCheckpoint>, OptimizeError> {
        Err(OptimizeError::invalid_config(
            "stop_after",
            "the island model does not support suspension; use run",
        ))
    }

    fn resume_with(
        &self,
        checkpoint: &NoCheckpoint,
        _sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError> {
        match *checkpoint {}
    }

    fn resume_until_with(
        &self,
        checkpoint: &NoCheckpoint,
        _stop_after: usize,
        _sink: &mut dyn Sink,
    ) -> Result<RunStatus<NoCheckpoint>, OptimizeError> {
        match *checkpoint {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moea::problems::{Schaffer, Zdt1};

    fn quick(islands: usize, interval: usize) -> IslandConfig {
        IslandConfig::builder()
            .population_size(40)
            .generations(30)
            .islands(islands)
            .migration_interval(interval)
            .migrants(2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(IslandConfig::builder().islands(0).build().is_err());
        assert!(IslandConfig::builder()
            .population_size(10)
            .islands(5)
            .build()
            .is_err());
        assert!(IslandConfig::builder()
            .migration_interval(0)
            .build()
            .is_err());
        assert!(IslandConfig::builder()
            .population_size(20)
            .islands(2)
            .migrants(10)
            .build()
            .is_err());
        assert!(IslandConfig::builder().build().is_ok());
    }

    #[test]
    fn run_is_deterministic() {
        let a = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(3)
            .unwrap();
        let b = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(3)
            .unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn migrations_happen_on_schedule() {
        let r = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(1)
            .unwrap();
        assert_eq!(r.migrations, 3); // generations 10, 20, 30
    }

    #[test]
    fn events_match_run_structure() {
        use crate::telemetry::MemorySink;
        let mut sink = MemorySink::new();
        let ga = IslandGa::new(Schaffer::new(), quick(4, 10));
        assert_eq!(ga.algorithm(), "island");
        let watched = ga.run_with(1, &mut sink).unwrap();
        let bare = ga.run_seeded(1).unwrap();
        assert_eq!(bare.front_objectives(), watched.front_objectives());
        assert_eq!(bare.history, watched.history);
        let ends = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::GenerationEnd { .. }))
            .count();
        assert_eq!(ends, watched.generations);
        // One Promotion event per migration event (ring migration reuses
        // the promotion vocabulary).
        let promotions = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::Promotion { .. }))
            .count();
        assert_eq!(promotions, watched.migrations);
        assert!(ga.run_until(1, 5).is_err());
    }

    #[test]
    fn single_island_never_migrates() {
        let r = IslandGa::new(Schaffer::new(), quick(1, 10))
            .run_seeded(1)
            .unwrap();
        assert_eq!(r.migrations, 0);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn archipelago_converges_on_schaffer() {
        let cfg = IslandConfig::builder()
            .population_size(60)
            .generations(80)
            .islands(4)
            .migration_interval(10)
            .build()
            .unwrap();
        let r = IslandGa::new(Schaffer::new(), cfg).run_seeded(7).unwrap();
        assert!(r.front.len() > 10);
        for m in &r.front {
            let f1 = m.objective(0);
            let f2 = m.objective(1);
            let expected = (f1.sqrt() - 2.0).powi(2);
            assert!(
                (f2 - expected).abs() < 0.1 + 0.15 * (1.0 + expected),
                "({f1}, {f2}) vs {expected}"
            );
        }
    }

    #[test]
    fn works_on_zdt() {
        let cfg = IslandConfig::builder()
            .population_size(48)
            .generations(40)
            .islands(3)
            .build()
            .unwrap();
        let r = IslandGa::new(Zdt1::new(8), cfg).run_seeded(5).unwrap();
        assert!(!r.front.is_empty());
        assert!(r.population.len() == 48);
    }

    #[test]
    fn evaluation_budget_matches_other_algorithms() {
        // pop + gens*pop evaluations, comparable to NSGA-II/SACGA budgets.
        let r = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(2)
            .unwrap();
        assert_eq!(r.evaluations, 40 + 30 * 40);
    }
}
