//! SACGA — the Simulated-Annealing-driven Competition Genetic Algorithm
//! (Sec. 4.4 of the paper, Fig. 3 flow).
//!
//! * **Phase I** — pure local competition inside objective-space
//!   partitions until every partition holds at least one
//!   constraint-satisfying solution (or an iteration cap is hit, after
//!   which infeasible partitions are discarded). Takes `gen_t` iterations.
//! * **Phase II** (`span = generations − gen_t` iterations) — each
//!   partition's locally superior solutions are considered in random order
//!   `i = 1..m_p`; the `i`-th joins the **global competition** with
//!   probability `1 − exp(−α/(c(i)·T_A))`, where `T_A` anneals from
//!   `T_init` to 1 across the span. Promoted solutions have their rank
//!   revised by a global non-dominated sort (a promoted solution that is
//!   globally dominated loses its local rank-0 status); protected
//!   solutions keep their local rank. A **Global Mating Pool** is drawn by
//!   rank-based selection over the entire population, crossover/mutation
//!   produce offspring, and survivors are selected per partition (local
//!   elitism).
//! * Termination: one final global competition over everything yields the
//!   Global Pareto Front.

use crate::anneal::{AnnealingSchedule, ProbabilityShaper, PromotionPolicy};
use crate::checkpoint::{EngineState, SacgaCheckpoint, SavedIndividual};
use crate::partition::{PartitionGrid, PartitionedPopulation};
use crate::telemetry::{expect_complete, EventKind, NullSink, Optimizer, RunEvent, Sink};
use engine::{
    EngineConfig, EngineStats, EvaluatorKind, ExecutionEngine, FaultPlan, FaultPolicy, SharedCache,
    Stage, StageTimer, SurrogateScreen,
};
use moea::individual::Individual;
use moea::operators::{random_vector, Variation};
use moea::problem::Problem;
use moea::selection::RankRoulette;
use moea::setup::EngineSetup;
use moea::sorting::rank_and_crowd;
use moea::{Evaluation, OptimizeError, RunOutcome, RunStatus};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

pub use moea::GenerationStats;

/// How candidates enter the global competition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompetitionMode {
    /// Full SACGA: annealed promotion from local to global competition.
    Annealed,
    /// Pure local competition forever (the Sec. 4.3 baseline); a single
    /// global competition happens only at output time.
    LocalOnly,
}

/// Configuration of a SACGA run. Build with [`SacgaConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct SacgaConfig {
    pub(crate) population_size: usize,
    pub(crate) generations: usize,
    pub(crate) partitions: usize,
    pub(crate) n_superior: usize,
    pub(crate) phase1_max: usize,
    pub(crate) shaper: ProbabilityShaper,
    pub(crate) variation: Option<Variation>,
    pub(crate) roulette_decay: f64,
    pub(crate) slice_objective: usize,
    pub(crate) slice_range: Option<(f64, f64)>,
    pub(crate) mode: CompetitionMode,
    pub(crate) exec: EngineSetup,
}

impl SacgaConfig {
    /// Starts a configuration builder.
    pub fn builder() -> SacgaConfigBuilder {
        SacgaConfigBuilder::default()
    }

    /// Population size.
    pub fn population_size(&self) -> usize {
        self.population_size
    }

    /// Total generation budget (phase I + phase II).
    pub fn generations(&self) -> usize {
        self.generations
    }

    /// Number of partitions `m`.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Evaluation-engine settings.
    pub fn engine(&self) -> &EngineConfig {
        self.exec.engine()
    }
}

/// Builder for [`SacgaConfig`].
#[derive(Debug, Clone)]
pub struct SacgaConfigBuilder {
    population_size: usize,
    generations: usize,
    partitions: usize,
    n_superior: usize,
    phase1_max: Option<usize>,
    shaper: ProbabilityShaper,
    variation: Option<Variation>,
    roulette_decay: f64,
    slice_objective: usize,
    slice_range: Option<(f64, f64)>,
    mode: CompetitionMode,
    exec: EngineSetup,
}

impl Default for SacgaConfigBuilder {
    fn default() -> Self {
        SacgaConfigBuilder {
            population_size: 100,
            generations: 250,
            partitions: 8,
            n_superior: 5,
            phase1_max: None,
            shaper: ProbabilityShaper::standard(),
            variation: None,
            roulette_decay: 0.8,
            slice_objective: 0,
            slice_range: None,
            mode: CompetitionMode::Annealed,
            exec: EngineSetup::new(),
        }
    }
}

impl SacgaConfigBuilder {
    /// Sets the population size (≥ 4, even).
    pub fn population_size(mut self, n: usize) -> Self {
        self.population_size = n;
        self
    }

    /// Sets the total generation budget.
    pub fn generations(mut self, n: usize) -> Self {
        self.generations = n;
        self
    }

    /// Sets the partition count `m` (≥ 1).
    pub fn partitions(mut self, m: usize) -> Self {
        self.partitions = m;
        self
    }

    /// Sets `n`, the desired number of globally superior solutions per
    /// partition (≥ 2), which shapes the promotion-cost exponent.
    pub fn n_superior(mut self, n: usize) -> Self {
        self.n_superior = n;
        self
    }

    /// Caps the pure-local phase (default: a quarter of the budget).
    pub fn phase1_max(mut self, cap: usize) -> Self {
        self.phase1_max = Some(cap);
        self
    }

    /// Overrides the probability-shaping targets.
    pub fn shaper(mut self, shaper: ProbabilityShaper) -> Self {
        self.shaper = shaper;
        self
    }

    /// Overrides the variation operators.
    pub fn variation(mut self, v: Variation) -> Self {
        self.variation = Some(v);
        self
    }

    /// Sets the geometric rank-roulette decay in `(0, 1]`.
    pub fn roulette_decay(mut self, d: f64) -> Self {
        self.roulette_decay = d;
        self
    }

    /// Chooses which objective's range is partitioned (default 0).
    pub fn slice_objective(mut self, k: usize) -> Self {
        self.slice_objective = k;
        self
    }

    /// Fixes the partitioned range a priori (e.g. the paper's 0–5 pF load
    /// axis, in internal minimized coordinates). When unset, the range is
    /// derived from the initial population.
    pub fn slice_range(mut self, lo: f64, hi: f64) -> Self {
        self.slice_range = Some((lo, hi));
        self
    }

    /// Switches between full SACGA and the pure-local baseline.
    pub fn mode(mut self, mode: CompetitionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the whole engine-knob bundle at once (see
    /// [`EngineSetup`]); the individual knob methods below delegate to
    /// the same bundle.
    pub fn engine_setup(mut self, exec: EngineSetup) -> Self {
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
    pub fn fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.exec = self.exec.fault_policy(fault);
        self
    }

    /// Enables deterministic fault injection with the given plan (a
    /// testing/chaos harness — injected faults are reproducible per
    /// candidate).
    pub fn inject_faults(mut self, plan: FaultPlan) -> Self {
        self.exec = self.exec.inject_faults(plan);
        self
    }

    /// Routes memoization through a [`SharedCache`] pooled across
    /// concurrent runs (a campaign) instead of a private per-run cache.
    /// Cached evaluations are pure functions of the genes, so sharing
    /// never changes a run's results — only how many model evaluations
    /// it performs.
    pub fn shared_cache(mut self, cache: SharedCache<Evaluation>) -> Self {
        self.exec = self.exec.shared_cache(cache);
        self
    }

    /// Attaches an opt-in [`SurrogateScreen`]: candidates the screen
    /// answers skip the full model (counted in
    /// [`EngineStats::screened`], never cached). Screening changes which
    /// candidates reach the model, so runs with an active screen are
    /// *not* byte-identical to unscreened runs — leave this unset (or use
    /// a never-firing screen) to keep pinned artifacts reproducible.
    pub fn surrogate_screen(mut self, screen: SurrogateScreen<Evaluation>) -> Self {
        self.exec = self.exec.surrogate_screen(screen);
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
    /// Returns [`OptimizeError::InvalidConfig`] for population sizes below
    /// 4 or odd, zero budgets, zero partitions, `n_superior < 2`, a bad
    /// roulette decay, or an inverted slice range.
    pub fn build(self) -> Result<SacgaConfig, OptimizeError> {
        if self.population_size < 4 || !self.population_size.is_multiple_of(2) {
            return Err(OptimizeError::invalid_config(
                "population_size",
                format!("must be even and at least 4, got {}", self.population_size),
            ));
        }
        if self.generations == 0 {
            return Err(OptimizeError::invalid_config(
                "generations",
                "must be at least 1",
            ));
        }
        if self.partitions == 0 {
            return Err(OptimizeError::invalid_config(
                "partitions",
                "must be at least 1",
            ));
        }
        if self.n_superior < 2 {
            return Err(OptimizeError::invalid_config(
                "n_superior",
                "must be at least 2",
            ));
        }
        if self.roulette_decay.is_nan() || self.roulette_decay <= 0.0 || self.roulette_decay > 1.0 {
            return Err(OptimizeError::invalid_config(
                "roulette_decay",
                "must lie in (0, 1]",
            ));
        }
        if let Some((lo, hi)) = self.slice_range {
            if lo >= hi || !lo.is_finite() || !hi.is_finite() {
                return Err(OptimizeError::invalid_config(
                    "slice_range",
                    format!("need finite lo < hi, got [{lo}, {hi}]"),
                ));
            }
        }
        let phase1_max = self
            .phase1_max
            .unwrap_or_else(|| (self.generations / 4).max(1));
        Ok(SacgaConfig {
            population_size: self.population_size,
            generations: self.generations,
            partitions: self.partitions,
            n_superior: self.n_superior,
            phase1_max,
            shaper: self.shaper,
            variation: self.variation,
            roulette_decay: self.roulette_decay,
            slice_objective: self.slice_objective,
            slice_range: self.slice_range,
            mode: self.mode,
            exec: self.exec,
        })
    }
}

/// Builds the execution engine for a run via
/// [`EngineSetup::build_engine`]: engine config, pooled cache, the
/// problem's cache canonicalizer and the optional surrogate screen.
/// Shared by [`Engine::start`] and [`Engine::restore`] so fresh and
/// resumed runs wire the evaluation path identically.
pub(crate) fn configure_exec<P: Problem + ?Sized>(
    problem: &P,
    config: &SacgaConfig,
) -> ExecutionEngine<Evaluation> {
    config.exec.build_engine(problem.cache_canonicalizer())
}

/// How a drive begins: a fresh seed or a stored checkpoint.
pub(crate) enum Launch<'c> {
    /// A fresh run from a seed.
    Seed(u64),
    /// A resumed run from a checkpoint.
    Checkpoint(&'c SacgaCheckpoint),
}

/// The SACGA optimizer.
#[derive(Debug)]
pub struct Sacga<P: Problem> {
    problem: P,
    config: SacgaConfig,
}

impl<P: Problem> Sacga<P> {
    /// Creates an optimizer for `problem` with `config`.
    pub fn new(problem: P, config: SacgaConfig) -> Self {
        Sacga { problem, config }
    }

    /// Runs with a seeded RNG and no instrumentation (equivalent to
    /// [`Optimizer::run`]).
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
        self.drive(Launch::Seed(seed), None, &mut NullSink)
            .map(expect_complete)
    }

    /// The shared run loop behind every public entry point: phase I until
    /// feasibility (or the cap), boundary processing, then phase II with
    /// the annealed promotion schedule. `stop_after` bounds the total
    /// generation count; reaching it suspends the run into a checkpoint.
    /// Structured events flow into `sink`; emission never consumes RNG,
    /// so instrumented and bare runs are bit-identical.
    pub(crate) fn drive(
        &self,
        launch: Launch<'_>,
        stop_after: Option<usize>,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<SacgaCheckpoint>, OptimizeError>
    where
        P: Sync,
    {
        let should_stop = |gen: usize| stop_after.is_some_and(|cap| gen >= cap);
        let fresh = matches!(launch, Launch::Seed(_));
        let (mut rng, mut engine, phase1_done, mut gen_t) = match launch {
            Launch::Seed(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                let engine = Engine::start(&self.problem, &self.config, &mut rng)?;
                (rng, engine, false, 0)
            }
            Launch::Checkpoint(cp) => {
                let (engine, rng) = Engine::restore(&self.problem, &self.config, &cp.state)?;
                (rng, engine, cp.state.phase1_done, cp.state.gen_t)
            }
        };
        if sink.wants(EventKind::StageTiming) {
            engine.enable_timing();
        }
        // Faults from the initial-population evaluation surface as
        // generation-0 events. A resumed segment emits nothing for the
        // checkpoint generation — its events belong to the segment that
        // executed it.
        if fresh {
            engine.emit_generation(sink);
        } else {
            engine.discard_restored_faults();
        }

        // Phase I. A checkpoint taken mid-phase-I re-enters this loop; the
        // termination condition and the boundary processing below are pure
        // functions of the restored population, so they replay identically.
        if !phase1_done {
            // Feasibility transitions are tracked only when someone
            // listens; partitions feasible from the start emit nothing.
            let mut feasibility = sink
                .wants(EventKind::PartitionFeasible)
                .then(|| engine.partition_feasibility());
            while engine.gen < self.config.generations
                && engine.gen < self.config.phase1_max
                && !(engine.pop.all_partitions_feasible() && engine.gen > 0)
            {
                if should_stop(engine.gen) {
                    return Ok(engine.suspend(sink, &rng, false, 0));
                }
                engine.local_generation(&mut rng)?;
                if let Some(before) = &mut feasibility {
                    let now = engine.partition_feasibility();
                    for (p, (was, is)) in before.iter().zip(&now).enumerate() {
                        if !was && *is {
                            sink.record(&RunEvent::PartitionFeasible {
                                generation: engine.gen,
                                partition: p,
                            });
                        }
                    }
                    *before = now;
                }
                engine.emit_generation(sink);
            }
            if !engine.pop.all_partitions_feasible() {
                engine.pop.discard_infeasible_partitions();
            }
            gen_t = engine.gen;
            if self.config.mode == CompetitionMode::Annealed
                && gen_t < self.config.generations
                && sink.wants(EventKind::PhaseTransition)
            {
                sink.record(&RunEvent::PhaseTransition {
                    generation: gen_t,
                    phase_index: 0,
                    partitions: self.config.partitions,
                    span: self.config.generations - gen_t,
                });
            }
        }

        // Phase II. The schedule depends only on `gen_t` (stored in phase-II
        // checkpoints), so a resumed run re-derives the same constants.
        let span = self.config.generations.saturating_sub(gen_t);
        let (policy, schedule) = self.config.shaper.solve(self.config.n_superior, span)?;
        while engine.gen < self.config.generations {
            if should_stop(engine.gen) {
                return Ok(engine.suspend(sink, &rng, true, gen_t));
            }
            match self.config.mode {
                CompetitionMode::Annealed => {
                    let (promoted, candidates) =
                        engine.annealed_generation(&mut rng, &policy, &schedule, gen_t)?;
                    if sink.wants(EventKind::Promotion) {
                        sink.record(&RunEvent::Promotion {
                            generation: engine.gen,
                            promoted,
                            candidates,
                        });
                    }
                }
                CompetitionMode::LocalOnly => {
                    engine.local_generation(&mut rng)?;
                }
            }
            engine.emit_generation(sink);
        }
        Ok(RunStatus::Complete(Box::new(engine.finish(gen_t))))
    }
}

impl<P: Problem + Sync> Optimizer for Sacga<P> {
    type Checkpoint = SacgaCheckpoint;

    fn algorithm(&self) -> &'static str {
        match self.config.mode {
            CompetitionMode::Annealed => "sacga",
            CompetitionMode::LocalOnly => "local",
        }
    }

    fn run_with(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError> {
        self.drive(Launch::Seed(seed), None, sink)
            .map(expect_complete)
    }

    fn run_until_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<SacgaCheckpoint>, OptimizeError> {
        self.drive(Launch::Seed(seed), Some(stop_after), sink)
    }

    fn resume_with(
        &self,
        checkpoint: &SacgaCheckpoint,
        sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError> {
        self.drive(Launch::Checkpoint(checkpoint), None, sink)
            .map(expect_complete)
    }

    fn resume_until_with(
        &self,
        checkpoint: &SacgaCheckpoint,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<SacgaCheckpoint>, OptimizeError> {
        self.drive(Launch::Checkpoint(checkpoint), Some(stop_after), sink)
    }
}

/// Feasible, globally non-dominated front of a population snapshot
/// (clone + one global competition; used for event payloads and
/// MESACGA phase fronts).
pub(crate) fn population_front(snapshot: &[Individual]) -> Vec<Individual> {
    let mut arena = snapshot.to_vec();
    rank_and_crowd(&mut arena);
    arena.retain(|m| m.rank == 0 && m.is_feasible());
    arena
}

/// Shared partition-GA engine, also driven by MESACGA.
pub(crate) struct Engine<'p, P: Problem> {
    problem: &'p P,
    config: &'p SacgaConfig,
    pub(crate) pop: PartitionedPopulation,
    pub(crate) gen: usize,
    pub(crate) history: Vec<GenerationStats>,
    variation: Variation,
    roulette: RankRoulette,
    exec: ExecutionEngine<Evaluation>,
    /// Flattened population after the last generation (for observers).
    pub(crate) flat_cache: Vec<Individual>,
    /// Per-stage wall-clock for the current generation; disabled (and
    /// free) unless the sink wants [`EventKind::StageTiming`].
    timer: StageTimer,
    /// Engine-stats snapshot at the previous generation boundary, used
    /// to derive per-generation deltas for timing events.
    stats_mark: EngineStats,
}

impl<'p, P: Problem + Sync> Engine<'p, P> {
    /// Initializes the population and the partition grid.
    pub(crate) fn start(
        problem: &'p P,
        config: &'p SacgaConfig,
        rng: &mut StdRng,
    ) -> Result<Self, OptimizeError> {
        if problem.num_objectives() == 0 {
            return Err(OptimizeError::invalid_problem(
                "problem must declare at least one objective",
            ));
        }
        if config.slice_objective >= problem.num_objectives() {
            return Err(OptimizeError::invalid_config(
                "slice_objective",
                format!(
                    "objective {} out of range for a {}-objective problem",
                    config.slice_objective,
                    problem.num_objectives()
                ),
            ));
        }
        let bounds = problem.bounds().clone();
        let mut exec = configure_exec(problem, config);
        let init_genes: Vec<Vec<f64>> = (0..config.population_size)
            .map(|_| random_vector(rng, &bounds))
            .collect();
        let init_evals = exec.try_evaluate_batch(&init_genes, &|genes| problem.evaluate(genes))?;
        let initial: Vec<Individual> = init_genes
            .into_iter()
            .zip(init_evals)
            .map(|(genes, ev)| Individual::new(genes, ev))
            .collect();
        problem.check_evaluation(&initial[0].evaluation)?;
        let grid = match config.slice_range {
            Some((lo, hi)) => {
                PartitionGrid::new(config.slice_objective, lo, hi, config.partitions)?
            }
            None => {
                PartitionGrid::from_population(config.slice_objective, &initial, config.partitions)?
            }
        };
        let mut pop = PartitionedPopulation::distribute(grid, initial);
        pop.rank_locally();
        let variation = config
            .variation
            .unwrap_or_else(|| Variation::standard(bounds.len()));
        let flat_cache = pop.flatten();
        let feasible = flat_cache.iter().filter(|m| m.is_feasible()).count();
        let history = vec![GenerationStats {
            generation: 0,
            phase: 1,
            temperature: f64::INFINITY,
            promoted: 0,
            feasible,
            population: flat_cache.len(),
        }];
        Ok(Engine {
            problem,
            config,
            pop,
            gen: 0,
            history,
            variation,
            roulette: RankRoulette::new(config.roulette_decay),
            exec,
            flat_cache,
            timer: StageTimer::disabled(),
            stats_mark: EngineStats::default(),
        })
    }

    /// Switches on per-stage timing (called when the sink wants
    /// [`EventKind::StageTiming`]). Baselines the stats snapshot so the
    /// first timed generation's delta excludes earlier work (the
    /// initial-population batch, or everything before a resume).
    pub(crate) fn enable_timing(&mut self) {
        self.timer.set_enabled(true);
        self.stats_mark = self.exec.stats().clone();
    }

    fn capacity(&self) -> usize {
        let alive = (0..self.pop.partition_count())
            .filter(|&p| self.pop.is_alive(p))
            .count()
            .max(1);
        self.config.population_size.div_ceil(alive)
    }

    /// One pure-local generation (phase I / LocalOnly mode).
    pub(crate) fn local_generation(&mut self, rng: &mut StdRng) -> Result<(), OptimizeError> {
        self.timer.start(Stage::Ranking);
        self.pop.rank_locally();
        let flat = self.pop.flatten();
        self.timer.stop();
        let offspring = self.make_offspring(rng, &flat)?;
        self.timer.start(Stage::Selection);
        self.pop.absorb(offspring);
        self.pop.truncate_to(self.capacity(), rng);
        self.timer.start(Stage::Ranking);
        self.pop.rank_locally();
        self.timer.stop();
        self.gen += 1;
        self.flat_cache = self.pop.flatten();
        self.record(1, f64::INFINITY, 0);
        Ok(())
    }

    /// One annealed generation (phase II): local ranking, SA-gated
    /// promotion, global rank revision, global mating pool, variation,
    /// local survivor selection. Returns `(promoted, candidates)` — how
    /// many locally superior solutions won the SA gamble, out of how
    /// many were considered — for the telemetry layer.
    pub(crate) fn annealed_generation(
        &mut self,
        rng: &mut StdRng,
        policy: &PromotionPolicy,
        schedule: &AnnealingSchedule,
        gen_t: usize,
    ) -> Result<(usize, usize), OptimizeError> {
        self.timer.start(Stage::Ranking);
        self.pop.rank_locally();
        let mut flat = self.pop.flatten();
        self.timer.stop();
        // The generation being produced is `gen + 1`; its elapsed phase-II
        // age runs 1..=span so the final generation anneals at exactly
        // T_A = 1 (pure global competition), per eqn (4).
        let temperature = schedule.temperature((self.gen + 1).saturating_sub(gen_t));

        // --- Promotion: locally superior members, per partition, in random
        // order; the i-th (1-based) joins with prob(i, T_A).
        self.timer.start(Stage::Promotion);
        let grid = *self.pop.grid();
        let mut per_partition: Vec<Vec<usize>> = vec![Vec::new(); grid.partition_count()];
        for (idx, ind) in flat.iter().enumerate() {
            if ind.rank == 0 {
                per_partition[grid.partition_of(ind.objectives())].push(idx);
            }
        }
        let candidates: usize = per_partition.iter().map(Vec::len).sum();
        let mut promoted: Vec<usize> = Vec::new();
        for locally_superior in per_partition.iter_mut() {
            locally_superior.shuffle(rng);
            for (pos, &idx) in locally_superior.iter().enumerate() {
                let prob = policy.probability(pos + 1, temperature);
                if rng.gen::<f64>() < prob {
                    promoted.push(idx);
                }
            }
        }

        // --- Global rank revision of the promoted candidates.
        if !promoted.is_empty() {
            let mut arena: Vec<Individual> = promoted.iter().map(|&i| flat[i].clone()).collect();
            rank_and_crowd(&mut arena);
            for (slot, &i) in promoted.iter().enumerate() {
                flat[i].rank = arena[slot].rank;
            }
        }
        self.timer.stop();

        // --- Global mating pool over the entire population with revised
        // ranks, then variation and local survivor selection.
        let offspring = self.make_offspring(rng, &flat)?;
        self.timer.start(Stage::Selection);
        self.pop.absorb(offspring);
        self.pop.truncate_to(self.capacity(), rng);
        self.timer.start(Stage::Ranking);
        self.pop.rank_locally();
        self.timer.stop();
        self.gen += 1;
        self.flat_cache = self.pop.flatten();
        self.record(2, temperature, promoted.len());
        Ok((promoted.len(), candidates))
    }

    /// Which partitions currently hold a constraint-satisfying member
    /// (dead partitions report `false`).
    pub(crate) fn partition_feasibility(&self) -> Vec<bool> {
        (0..self.pop.partition_count())
            .map(|p| self.pop.is_alive(p) && self.pop.partition(p).iter().any(|m| m.is_feasible()))
            .collect()
    }

    /// Drains resolved fault episodes and, for executed generations,
    /// emits the [`RunEvent::GenerationEnd`] record. Called once per
    /// generation boundary (including generation 0, which emits only
    /// fault events from the initial evaluation).
    pub(crate) fn emit_generation(&mut self, sink: &mut dyn Sink) {
        let faults = self.exec.take_fault_events();
        if sink.wants(EventKind::EvaluationFault) {
            for fault in &faults {
                sink.record(&RunEvent::EvaluationFault {
                    generation: self.gen,
                    kind: fault.kind,
                    failures: fault.failures,
                    resolution: fault.resolution,
                });
            }
        }
        if self.gen > 0 && sink.wants(EventKind::GenerationEnd) {
            let row = *self
                .history
                .last()
                .expect("every generation records a history row");
            let front = population_front(&self.flat_cache)
                .iter()
                .map(|m| m.objectives().to_vec())
                .collect();
            sink.record(&RunEvent::GenerationEnd {
                generation: self.gen,
                phase: row.phase,
                temperature: row.temperature,
                promoted: row.promoted,
                feasible: row.feasible,
                population: row.population,
                evaluations: self.exec.stats().evaluations,
                front,
            });
        }
        if self.gen > 0 && self.timer.is_enabled() {
            let stages = self.timer.take();
            let delta = self.exec.stats().since(&self.stats_mark);
            self.stats_mark = self.exec.stats().clone();
            sink.record(&RunEvent::StageTiming {
                generation: self.gen,
                stages,
                candidates: delta.candidates,
                evaluations: delta.evaluations,
                cache_hits: delta.cache_hits,
            });
        }
    }

    /// Drops fault episodes buffered while a checkpoint restore rebuilt
    /// the evaluation cache; the segment that originally executed those
    /// evaluations already reported them.
    pub(crate) fn discard_restored_faults(&mut self) {
        let _ = self.exec.take_fault_events();
    }

    /// Captures a checkpoint, announces it, and wraps it for return.
    pub(crate) fn suspend(
        &self,
        sink: &mut dyn Sink,
        rng: &StdRng,
        phase1_done: bool,
        gen_t: usize,
    ) -> RunStatus<SacgaCheckpoint> {
        if sink.wants(EventKind::CheckpointWritten) {
            sink.record(&RunEvent::CheckpointWritten {
                generation: self.gen,
            });
        }
        RunStatus::Suspended(Box::new(SacgaCheckpoint {
            state: self.snapshot(rng, phase1_done, gen_t),
        }))
    }

    fn make_offspring(
        &mut self,
        rng: &mut StdRng,
        flat: &[Individual],
    ) -> Result<Vec<Individual>, OptimizeError> {
        let n = self.config.population_size;
        let problem = self.problem;
        let bounds = problem.bounds();
        // Draw the full gene batch first (the only RNG consumer), then
        // evaluate it in one engine call.
        self.timer.start(Stage::Variation);
        let mut child_genes: Vec<Vec<f64>> = Vec::with_capacity(n);
        if flat.is_empty() {
            // Degenerate: reseed randomly.
            while child_genes.len() < n {
                child_genes.push(random_vector(rng, bounds));
            }
        } else {
            while child_genes.len() < n {
                let pa = self.roulette.select(rng, flat);
                let pb = self.roulette.select(rng, flat);
                let (c1, c2) =
                    self.variation
                        .offspring(rng, &flat[pa].genes, &flat[pb].genes, bounds);
                child_genes.push(c1);
                if child_genes.len() < n {
                    child_genes.push(c2);
                }
            }
        }
        self.timer.start(Stage::Evaluation);
        let evals = self
            .exec
            .try_evaluate_batch(&child_genes, &|genes| problem.evaluate(genes))?;
        self.timer.stop();
        Ok(child_genes
            .into_iter()
            .zip(evals)
            .map(|(genes, ev)| Individual::new(genes, ev))
            .collect())
    }

    /// Captures the complete engine state at a generation boundary.
    /// `phase1_done` records whether the phase-I boundary processing has
    /// run; `gen_t` is meaningful only when it has.
    pub(crate) fn snapshot(&self, rng: &StdRng, phase1_done: bool, gen_t: usize) -> EngineState {
        let grid = *self.pop.grid();
        let (grid_lo, grid_hi) = grid.range();
        let partitions = (0..self.pop.partition_count())
            .map(|p| {
                self.pop
                    .partition(p)
                    .iter()
                    .map(SavedIndividual::from_individual)
                    .collect()
            })
            .collect();
        let alive = (0..self.pop.partition_count())
            .map(|p| self.pop.is_alive(p))
            .collect();
        EngineState {
            rng: rng.state(),
            gen: self.gen,
            phase1_done,
            gen_t,
            grid_objective: grid.objective(),
            grid_lo,
            grid_hi,
            grid_partitions: grid.partition_count(),
            alive,
            partitions,
            history: self.history.clone(),
            stats: self.exec.stats().clone(),
        }
    }

    /// Rebuilds an engine (and its RNG) from a checkpointed state. The
    /// stored partition assignment is trusted verbatim; the memoization
    /// cache restarts cold (its contents are a pure performance artifact
    /// and never affect results).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidCheckpoint`] when the stored grid
    /// or partition layout is inconsistent, and the same start-up errors
    /// as [`Engine::start`].
    pub(crate) fn restore(
        problem: &'p P,
        config: &'p SacgaConfig,
        state: &EngineState,
    ) -> Result<(Self, StdRng), OptimizeError> {
        if problem.num_objectives() == 0 {
            return Err(OptimizeError::invalid_problem(
                "problem must declare at least one objective",
            ));
        }
        if state.grid_objective >= problem.num_objectives() {
            return Err(OptimizeError::invalid_checkpoint(format!(
                "checkpoint slices objective {} but the problem declares {}",
                state.grid_objective,
                problem.num_objectives()
            )));
        }
        let grid = PartitionGrid::new(
            state.grid_objective,
            state.grid_lo,
            state.grid_hi,
            state.grid_partitions,
        )
        .map_err(|e| OptimizeError::invalid_checkpoint(format!("stored grid is invalid: {e}")))?;
        let members: Vec<Vec<Individual>> = state
            .partitions
            .iter()
            .map(|part| part.iter().map(SavedIndividual::to_individual).collect())
            .collect();
        let pop = PartitionedPopulation::from_parts(grid, members, state.alive.clone())?;
        let bounds = problem.bounds().clone();
        let mut exec = configure_exec(problem, config);
        exec.restore_stats(state.stats.clone());
        let variation = config
            .variation
            .unwrap_or_else(|| Variation::standard(bounds.len()));
        let flat_cache = pop.flatten();
        let engine = Engine {
            problem,
            config,
            pop,
            gen: state.gen,
            history: state.history.clone(),
            variation,
            roulette: RankRoulette::new(config.roulette_decay),
            exec,
            flat_cache,
            timer: StageTimer::disabled(),
            stats_mark: EngineStats::default(),
        };
        Ok((engine, StdRng::from_state(state.rng)))
    }

    fn record(&mut self, phase: u8, temperature: f64, promoted: usize) {
        let feasible = self.flat_cache.iter().filter(|m| m.is_feasible()).count();
        self.history.push(GenerationStats {
            generation: self.gen,
            phase,
            temperature,
            promoted,
            feasible,
            population: self.flat_cache.len(),
        });
    }

    /// Final global competition and result assembly: per the paper, the
    /// Global Pareto Front is found by one global competition over the
    /// entire final population.
    pub(crate) fn finish(self, gen_t: usize) -> RunOutcome {
        let mut population = self.pop.flatten();
        rank_and_crowd(&mut population);
        let front: Vec<Individual> = population
            .iter()
            .filter(|m| m.rank == 0 && m.is_feasible())
            .cloned()
            .collect();
        let stats = self.exec.into_stats();
        RunOutcome {
            population,
            front,
            evaluations: stats.evaluations as usize,
            generations: self.gen,
            gen_t,
            history: self.history,
            phase_fronts: Vec::new(),
            migrations: 0,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MemorySink;
    use engine::EngineStats;
    use moea::problems::{NarrowingCorridor, Schaffer, Zdt1};

    fn small_config(generations: usize, partitions: usize) -> SacgaConfig {
        SacgaConfig::builder()
            .population_size(40)
            .generations(generations)
            .partitions(partitions)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(SacgaConfig::builder().population_size(3).build().is_err());
        assert!(SacgaConfig::builder().population_size(7).build().is_err());
        assert!(SacgaConfig::builder().generations(0).build().is_err());
        assert!(SacgaConfig::builder().partitions(0).build().is_err());
        assert!(SacgaConfig::builder().n_superior(1).build().is_err());
        assert!(SacgaConfig::builder().roulette_decay(0.0).build().is_err());
        assert!(SacgaConfig::builder()
            .slice_range(2.0, 1.0)
            .build()
            .is_err());
        assert!(SacgaConfig::builder().build().is_ok());
    }

    #[test]
    fn runs_deterministically_per_seed() {
        let cfg = small_config(30, 6);
        let a = Sacga::new(Schaffer::new(), cfg.clone())
            .run_seeded(5)
            .unwrap();
        let b = Sacga::new(Schaffer::new(), cfg).run_seeded(5).unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn front_is_globally_nondominated_and_feasible() {
        let cfg = small_config(40, 8);
        let r = Sacga::new(Schaffer::new(), cfg).run_seeded(1).unwrap();
        assert!(!r.front.is_empty());
        assert!(r.front.iter().all(|m| m.rank == 0 && m.is_feasible()));
        // pairwise non-domination
        use moea::dominance::{dominates, Dominance};
        for a in &r.front {
            for b in &r.front {
                assert_ne!(dominates(a.objectives(), b.objectives()), Dominance::First);
            }
        }
    }

    #[test]
    fn phase1_ends_when_feasible_everywhere() {
        // Unconstrained problem: every individual is feasible, so phase I
        // should end after a single generation.
        let cfg = small_config(20, 4);
        let r = Sacga::new(Schaffer::new(), cfg).run_seeded(2).unwrap();
        assert!(r.gen_t <= 2, "gen_t = {}", r.gen_t);
        assert_eq!(r.generations, 20);
    }

    #[test]
    fn phase1_capped_on_constrained_problem() {
        let cfg = SacgaConfig::builder()
            .population_size(24)
            .generations(30)
            .partitions(10)
            .phase1_max(5)
            .build()
            .unwrap();
        let r = Sacga::new(NarrowingCorridor::new(0.02), cfg)
            .run_seeded(3)
            .unwrap();
        assert!(r.gen_t <= 5);
    }

    #[test]
    fn history_tracks_phases_and_temperature() {
        let cfg = small_config(20, 4);
        let r = Sacga::new(Schaffer::new(), cfg).run_seeded(4).unwrap();
        assert_eq!(r.history.len(), r.generations + 1);
        // phase-2 temperatures must be finite and decreasing
        let temps: Vec<f64> = r
            .history
            .iter()
            .filter(|h| h.phase == 2)
            .map(|h| h.temperature)
            .collect();
        assert!(!temps.is_empty());
        for w in temps.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        let last = temps.last().copied().unwrap();
        assert!(
            (last - 1.0).abs() < 1e-6,
            "temperature should cool to 1, got {last}"
        );
    }

    #[test]
    fn promotions_increase_as_annealing_cools() {
        let cfg = SacgaConfig::builder()
            .population_size(60)
            .generations(60)
            .partitions(6)
            .build()
            .unwrap();
        let r = Sacga::new(Zdt1::new(6), cfg).run_seeded(7).unwrap();
        let phase2: Vec<&GenerationStats> = r.history.iter().filter(|h| h.phase == 2).collect();
        assert!(phase2.len() > 10);
        let early: usize = phase2[..5].iter().map(|h| h.promoted).sum();
        let late: usize = phase2[phase2.len() - 5..].iter().map(|h| h.promoted).sum();
        assert!(
            late > early,
            "promotions should grow as T_A cools: early {early}, late {late}"
        );
    }

    #[test]
    fn local_only_mode_never_promotes() {
        let cfg = SacgaConfig::builder()
            .population_size(40)
            .generations(25)
            .partitions(5)
            .mode(CompetitionMode::LocalOnly)
            .build()
            .unwrap();
        let r = Sacga::new(Schaffer::new(), cfg).run_seeded(8).unwrap();
        assert!(r.history.iter().all(|h| h.promoted == 0));
        assert!(!r.front.is_empty());
    }

    #[test]
    fn evaluations_match_budget() {
        let cfg = small_config(15, 4);
        let r = Sacga::new(Schaffer::new(), cfg).run_seeded(9).unwrap();
        // init + one offspring batch per generation
        assert_eq!(r.evaluations, 40 + 15 * 40);
    }

    #[test]
    fn generation_end_emitted_every_generation() {
        let cfg = small_config(12, 4);
        let mut sink = MemorySink::new();
        let r = Sacga::new(Schaffer::new(), cfg)
            .run_with(1, &mut sink)
            .unwrap();
        let gens: Vec<usize> = sink
            .events()
            .iter()
            .filter(|e| e.kind() == EventKind::GenerationEnd)
            .map(|e| e.generation())
            .collect();
        assert_eq!(gens.len(), r.generations);
        assert_eq!(gens, (1..=12).collect::<Vec<_>>());
    }

    #[test]
    fn sink_attached_run_is_bit_identical_to_bare_run() {
        let cfg = small_config(18, 5);
        let bare = Sacga::new(Schaffer::new(), cfg.clone())
            .run_seeded(6)
            .unwrap();
        let mut sink = MemorySink::new();
        let observed = Sacga::new(Schaffer::new(), cfg)
            .run_with(6, &mut sink)
            .unwrap();
        assert_eq!(bare.front_objectives(), observed.front_objectives());
        assert_eq!(genes_of(&bare.population), genes_of(&observed.population));
        assert_eq!(bare.history, observed.history);
        assert!(!sink.events().is_empty());
    }

    #[test]
    fn annealed_run_emits_phase_transition_and_promotions() {
        let cfg = small_config(20, 4);
        let mut sink = MemorySink::new();
        let r = Sacga::new(Schaffer::new(), cfg)
            .run_with(4, &mut sink)
            .unwrap();
        let transitions: Vec<&RunEvent> = sink
            .events()
            .iter()
            .filter(|e| e.kind() == EventKind::PhaseTransition)
            .collect();
        assert_eq!(transitions.len(), 1);
        match transitions[0] {
            RunEvent::PhaseTransition {
                generation, span, ..
            } => {
                assert_eq!(*generation, r.gen_t);
                assert_eq!(*span, r.generations - r.gen_t);
            }
            other => panic!("unexpected event {other:?}"),
        }
        // One Promotion event per annealed generation.
        let promotions = sink
            .events()
            .iter()
            .filter(|e| e.kind() == EventKind::Promotion)
            .count();
        assert_eq!(promotions, r.generations - r.gen_t);
    }

    #[test]
    fn phase1_reports_partition_feasibility_transitions() {
        // Constrained problem: partitions become feasible over time.
        let cfg = SacgaConfig::builder()
            .population_size(30)
            .generations(25)
            .partitions(8)
            .phase1_max(6)
            .slice_range(-1.0, 0.0)
            .build()
            .unwrap();
        let mut sink = MemorySink::new();
        let r = Sacga::new(NarrowingCorridor::new(0.05), cfg)
            .run_with(21, &mut sink)
            .unwrap();
        let feasible_events: Vec<&RunEvent> = sink
            .events()
            .iter()
            .filter(|e| e.kind() == EventKind::PartitionFeasible)
            .collect();
        for e in &feasible_events {
            assert!(e.generation() <= r.gen_t, "feasibility is a phase-I event");
        }
        // No partition is reported twice.
        let mut seen = std::collections::HashSet::new();
        for e in &feasible_events {
            if let RunEvent::PartitionFeasible { partition, .. } = e {
                assert!(seen.insert(*partition), "partition {partition} repeated");
            }
        }
    }

    #[test]
    fn slice_range_respected() {
        let cfg = SacgaConfig::builder()
            .population_size(20)
            .generations(10)
            .partitions(4)
            .slice_range(0.0, 4.0)
            .build()
            .unwrap();
        let r = Sacga::new(Schaffer::new(), cfg).run_seeded(11).unwrap();
        assert!(!r.front.is_empty());
    }

    #[test]
    fn single_partition_behaves_like_global_ga() {
        // m = 1: local competition IS global competition; the run should
        // still converge on Schaffer. Rank-roulette selection is gentler
        // than crowded tournament, so the tolerance is loose.
        let cfg = small_config(150, 1);
        let r = Sacga::new(Schaffer::new(), cfg).run_seeded(13).unwrap();
        assert!(r.front.len() > 5);
        for m in &r.front {
            let f1 = m.objective(0);
            let f2 = m.objective(1);
            let expected = (f1.sqrt() - 2.0).powi(2);
            assert!(
                (f2 - expected).abs() < 0.2 + 0.2 * (1.0 + expected),
                "({f1}, {f2}) vs expected {expected}"
            );
        }
    }

    #[test]
    fn three_objective_extension_works() {
        // Sec. 1 of the paper: "the extension to an arbitrary number of
        // objective functions is straight-forward" — partition one
        // objective's range and run as usual. DTLZ2 has a spherical
        // 3-objective front; partition along f0.
        use moea::problems::Dtlz2;
        let cfg = SacgaConfig::builder()
            .population_size(60)
            .generations(60)
            .partitions(6)
            .slice_objective(0)
            .slice_range(0.0, 1.2)
            .build()
            .unwrap();
        let r = Sacga::new(Dtlz2::new(3, 6), cfg).run_seeded(19).unwrap();
        assert!(r.front.len() > 10);
        // front points lie near the unit sphere
        for m in &r.front {
            let norm2: f64 = m.objectives().iter().map(|&v| v * v).sum();
            assert!(
                (0.9..1.6).contains(&norm2),
                "front point off the sphere: |f|^2 = {norm2}"
            );
        }
        // coverage along the partitioned objective
        let pts: Vec<Vec<f64>> = r.front_objectives();
        assert!(moea::metrics::extent(&pts, 0) > 0.5);
    }

    #[test]
    fn infeasible_partitions_are_discarded_after_phase1_cap() {
        // Slice range [-2, 0] while the corridor's coverage objective only
        // spans [-1, 0]: the lower half of the partitions can never hold a
        // feasible member and must be discarded at the phase-I cap instead
        // of stalling the run.
        let cfg = SacgaConfig::builder()
            .population_size(30)
            .generations(25)
            .partitions(8)
            .phase1_max(6)
            .slice_range(-2.0, 0.0)
            .build()
            .unwrap();
        let r = Sacga::new(NarrowingCorridor::new(0.05), cfg)
            .run_seeded(21)
            .unwrap();
        assert_eq!(r.gen_t, 6, "phase I must end at the cap");
        assert_eq!(r.generations, 25);
        assert!(!r.front.is_empty());
        // every front member lies in the achievable half of the range
        assert!(r.front.iter().all(|m| m.objective(0) >= -1.0));
    }

    #[test]
    fn sacga_covers_corridor_better_than_expected_minimum() {
        // Diversity sanity: on the corridor problem the front should span
        // a good part of the coverage axis.
        let cfg = SacgaConfig::builder()
            .population_size(60)
            .generations(80)
            .partitions(8)
            .slice_range(-1.0, 0.0) // f0 = -coverage
            .build()
            .unwrap();
        let r = Sacga::new(NarrowingCorridor::new(0.05), cfg)
            .run_seeded(17)
            .unwrap();
        let pts: Vec<Vec<f64>> = r.front_objectives();
        assert!(!pts.is_empty());
        let ext = moea::metrics::extent(&pts, 0);
        assert!(ext > 0.5, "front should span the coverage axis, got {ext}");
    }

    /// Strips wall-clock timing so stats can be compared across runs.
    fn scrub(mut stats: EngineStats) -> EngineStats {
        stats.eval_time = std::time::Duration::ZERO;
        stats.backoff_time = std::time::Duration::ZERO;
        stats
    }

    fn genes_of(pop: &[Individual]) -> Vec<Vec<f64>> {
        pop.iter().map(|m| m.genes.clone()).collect()
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        let cfg = small_config(30, 6);
        let full = Sacga::new(Schaffer::new(), cfg.clone())
            .run_seeded(5)
            .unwrap();
        // Stop points cover: before any generation, the phase-I/II
        // boundary, deep inside phase II, and the final generation.
        for stop in [0usize, 1, 2, 13, 29] {
            let ga = Sacga::new(Schaffer::new(), cfg.clone());
            let cp = match ga.run_until(5, stop).unwrap() {
                RunStatus::Suspended(cp) => cp,
                RunStatus::Complete(_) => panic!("run should suspend at gen {stop}"),
            };
            assert_eq!(cp.state.gen, stop);
            let resumed = ga.resume(&cp).unwrap();
            assert_eq!(resumed.front_objectives(), full.front_objectives());
            assert_eq!(genes_of(&resumed.population), genes_of(&full.population));
            assert_eq!(resumed.history, full.history);
            assert_eq!(resumed.gen_t, full.gen_t);
            assert_eq!(scrub(resumed.stats), scrub(full.stats.clone()));
        }
    }

    #[test]
    fn resume_until_chains_across_checkpoints() {
        let cfg = small_config(24, 5);
        let full = Sacga::new(Schaffer::new(), cfg.clone())
            .run_seeded(3)
            .unwrap();
        let ga = Sacga::new(Schaffer::new(), cfg);
        let mut run = ga.run_until(3, 4).unwrap();
        let mut hops = 0;
        let result = loop {
            match run {
                RunStatus::Complete(r) => break *r,
                RunStatus::Suspended(cp) => {
                    hops += 1;
                    run = ga.resume_until(&cp, cp.state.gen + 4).unwrap();
                }
            }
        };
        assert!(hops >= 4, "expected several suspensions, got {hops}");
        assert_eq!(result.front_objectives(), full.front_objectives());
        assert_eq!(result.history, full.history);
    }

    #[test]
    fn checkpoint_text_round_trip_resumes_identically() {
        let cfg = small_config(25, 5);
        let ga = Sacga::new(Schaffer::new(), cfg);
        let cp = match ga.run_until(7, 10).unwrap() {
            RunStatus::Suspended(cp) => cp,
            RunStatus::Complete(_) => panic!("run should suspend"),
        };
        let restored = SacgaCheckpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(*cp, restored);
        let a = ga.resume(&cp).unwrap();
        let b = ga.resume(&restored).unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn fault_injected_run_matches_fault_free_front() {
        let base = SacgaConfig::builder()
            .population_size(24)
            .generations(15)
            .partitions(4);
        let clean_cfg = base.clone().build().unwrap();
        let faulty_cfg = base
            .fault_policy(FaultPolicy::tolerant(3))
            .inject_faults(FaultPlan::seeded(11).panics(0.05).nonfinite(0.05))
            .build()
            .unwrap();
        let clean = Sacga::new(Schaffer::new(), clean_cfg)
            .run_seeded(7)
            .unwrap();
        let faulty = Sacga::new(Schaffer::new(), faulty_cfg)
            .run_seeded(7)
            .unwrap();
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
    fn fault_injected_checkpoint_resume_preserves_fault_accounting() {
        let cfg = SacgaConfig::builder()
            .population_size(24)
            .generations(16)
            .partitions(4)
            .fault_policy(FaultPolicy::tolerant(3))
            .inject_faults(FaultPlan::seeded(13).panics(0.08))
            .build()
            .unwrap();
        let full = Sacga::new(Schaffer::new(), cfg.clone())
            .run_seeded(23)
            .unwrap();
        let ga = Sacga::new(Schaffer::new(), cfg);
        let cp = match ga.run_until(23, 8).unwrap() {
            RunStatus::Suspended(cp) => cp,
            RunStatus::Complete(_) => panic!("run should suspend"),
        };
        let resumed = ga.resume(&cp).unwrap();
        assert_eq!(resumed.front_objectives(), full.front_objectives());
        assert_eq!(scrub(resumed.stats), scrub(full.stats.clone()));
        assert!(full.stats.injected_panics > 0);
    }

    #[test]
    fn aborting_fault_policy_propagates_typed_error() {
        let cfg = SacgaConfig::builder()
            .population_size(8)
            .generations(2)
            .inject_faults(FaultPlan::seeded(1).panics(1.0))
            .build()
            .unwrap();
        let err = Sacga::new(Schaffer::new(), cfg).run_seeded(1).unwrap_err();
        match err {
            OptimizeError::EvaluationFailed(f) => assert_eq!(f.kind, engine::FaultKind::Panic),
            other => panic!("expected EvaluationFailed, got {other:?}"),
        }
    }
}
