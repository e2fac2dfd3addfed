//! NSGA-II — the elitist non-dominated sorting genetic algorithm
//! (Deb, Pratap, Agarwal, Meyarivan, 2002), with Deb's constrained
//! dominance.
//!
//! In the reproduced paper this algorithm is the baseline, referred to as
//! **TPG** — *Traditional Purely Global competition* based GA: every
//! individual competes with every other individual in a single global
//! non-dominated sort each generation.

use crate::error::OptimizeError;
use crate::individual::Individual;
use crate::operators::{random_vector, Variation};
use crate::outcome::{GenerationStats, RunOutcome};
use crate::problem::Problem;
use crate::selection::binary_tournament;
use crate::setup::EngineSetup;
use crate::sorting::{environmental_selection, rank_and_crowd};
use engine::{
    EngineConfig, EvaluatorKind, FaultEvent, FaultPlan, FaultPolicy, SharedCache, Stage,
    StageNanos, StageTimer, SurrogateScreen,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of an NSGA-II run. Build with [`Nsga2Config::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    population_size: usize,
    generations: usize,
    variation: Option<Variation>,
    exec: EngineSetup,
}

impl Nsga2Config {
    /// Starts a configuration builder.
    pub fn builder() -> Nsga2ConfigBuilder {
        Nsga2ConfigBuilder::default()
    }

    /// Population size.
    pub fn population_size(&self) -> usize {
        self.population_size
    }

    /// Number of generations.
    pub fn generations(&self) -> usize {
        self.generations
    }

    /// Evaluation-engine settings.
    pub fn engine(&self) -> &EngineConfig {
        self.exec.engine()
    }
}

/// Builder for [`Nsga2Config`].
#[derive(Debug, Clone, Default)]
pub struct Nsga2ConfigBuilder {
    population_size: Option<usize>,
    generations: Option<usize>,
    variation: Option<Variation>,
    exec: EngineSetup,
}

impl Nsga2ConfigBuilder {
    /// Sets the population size (must be ≥ 4 and even).
    pub fn population_size(mut self, n: usize) -> Self {
        self.population_size = Some(n);
        self
    }

    /// Sets the generation budget (must be ≥ 1).
    pub fn generations(mut self, n: usize) -> Self {
        self.generations = Some(n);
        self
    }

    /// Overrides the variation operators (default:
    /// [`Variation::standard`] for the problem's dimension).
    pub fn variation(mut self, v: Variation) -> Self {
        self.variation = Some(v);
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

    /// Sets the fault-handling policy (retry budget, non-finite
    /// quarantine, exhausted action) applied to every evaluation.
    pub fn fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.exec = self.exec.fault_policy(fault);
        self
    }

    /// Enables deterministic fault injection (test harness).
    pub fn inject_faults(mut self, plan: FaultPlan) -> Self {
        self.exec = self.exec.inject_faults(plan);
        self
    }

    /// Routes memoization through a [`SharedCache`] pooled across
    /// concurrent runs (a campaign) instead of a private per-run cache.
    /// Cached evaluations are pure functions of the genes, so sharing
    /// never changes a run's results — only how many model evaluations
    /// it performs.
    pub fn shared_cache(mut self, cache: SharedCache<crate::Evaluation>) -> Self {
        self.exec = self.exec.shared_cache(cache);
        self
    }

    /// Attaches an opt-in [`SurrogateScreen`]: candidates the screen
    /// answers skip the full model (counted in
    /// [`engine::EngineStats::screened`], never cached). Screening
    /// changes which candidates reach the model, so screened runs are
    /// *not* byte-identical to unscreened ones.
    pub fn surrogate_screen(mut self, screen: SurrogateScreen<crate::Evaluation>) -> Self {
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
    /// Returns [`OptimizeError::InvalidConfig`] when the population size is
    /// below 4 or odd, or the generation budget is zero.
    pub fn build(self) -> Result<Nsga2Config, OptimizeError> {
        let population_size = self.population_size.unwrap_or(100);
        let generations = self.generations.unwrap_or(250);
        if population_size < 4 {
            return Err(OptimizeError::invalid_config(
                "population_size",
                format!("must be at least 4, got {population_size}"),
            ));
        }
        if !population_size.is_multiple_of(2) {
            return Err(OptimizeError::invalid_config(
                "population_size",
                format!("must be even, got {population_size}"),
            ));
        }
        if generations == 0 {
            return Err(OptimizeError::invalid_config(
                "generations",
                "must be at least 1",
            ));
        }
        Ok(Nsga2Config {
            population_size,
            generations,
            variation: self.variation,
            exec: self.exec,
        })
    }
}

/// Per-generation trace record passed to [`Nsga2::run_traced`]
/// observers. Borrowed from the run loop between generations; consumers
/// copy out what they need.
#[derive(Debug)]
pub struct GenerationTrace<'a> {
    /// Generation index (0 = initial population).
    pub generation: usize,
    /// Population after environmental selection, globally ranked and
    /// crowded.
    pub population: &'a [Individual],
    /// Fault episodes (retries, quarantines) resolved while evaluating
    /// this generation, in batch order.
    pub faults: Vec<FaultEvent>,
    /// Cumulative objective evaluations performed so far.
    pub evaluations: u64,
    /// Stage timing for this generation; `Some` only under
    /// [`Nsga2::run_traced_timed`] and never for generation 0 (the
    /// initial batch has no variation/selection stages). Wall-clock data
    /// — not deterministic across runs.
    pub timing: Option<TraceTiming>,
}

/// Per-generation profiling attached to a [`GenerationTrace`]: where the
/// generation's wall-clock went and how much evaluation effort it spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTiming {
    /// Nanoseconds per pipeline stage.
    pub stages: StageNanos,
    /// Candidates submitted to the engine this generation.
    pub candidates: u64,
    /// Model evaluations actually performed this generation.
    pub evaluations: u64,
    /// Candidates answered from the memoization cache this generation.
    pub cache_hits: u64,
}

/// Extracts the feasible rank-0 subset of a ranked population.
pub fn feasible_front(pop: &[Individual]) -> Vec<Individual> {
    pop.iter()
        .filter(|m| m.rank == 0 && m.is_feasible())
        .cloned()
        .collect()
}

/// The NSGA-II optimizer.
///
/// # Examples
///
/// ```
/// use moea::nsga2::{Nsga2, Nsga2Config};
/// use moea::problems::Zdt1;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let config = Nsga2Config::builder()
///     .population_size(48)
///     .generations(30)
///     .build()?;
/// let result = Nsga2::new(Zdt1::new(10), config).run_seeded(1)?;
/// assert!(result.evaluations > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Nsga2<P: Problem> {
    problem: P,
    config: Nsga2Config,
}

impl<P: Problem> Nsga2<P> {
    /// Creates an optimizer for `problem` with `config`.
    pub fn new(problem: P, config: Nsga2Config) -> Self {
        Nsga2 { problem, config }
    }

    /// Runs the optimizer with a seeded RNG.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidProblem`] when the problem declares
    /// zero objectives, an evaluation-shape error on the first
    /// evaluation, or [`OptimizeError::EvaluationFailed`] when a
    /// candidate exhausts the engine's retry budget under an aborting
    /// fault policy.
    pub fn run_seeded(&self, seed: u64) -> Result<RunOutcome, OptimizeError>
    where
        P: Sync,
    {
        self.run_traced(seed, |_| {})
    }

    /// Runs the optimizer, invoking `trace` with a [`GenerationTrace`]
    /// after every environmental selection (including the initial
    /// population) — the hook the `sacga` telemetry layer adapts into
    /// its event stream. Tracing never consumes RNG, so traced and
    /// untraced runs of the same seed are bit-identical.
    ///
    /// # Errors
    ///
    /// Same as [`run_seeded`](Nsga2::run_seeded).
    pub fn run_traced<F>(&self, seed: u64, trace: F) -> Result<RunOutcome, OptimizeError>
    where
        P: Sync,
        F: FnMut(GenerationTrace<'_>),
    {
        let mut rng = StdRng::seed_from_u64(seed);
        self.run_with_rng(&mut rng, trace, false)
    }

    /// Like [`run_traced`](Nsga2::run_traced), but additionally measures
    /// per-stage wall-clock each generation and attaches it as
    /// [`GenerationTrace::timing`]. The timer only reads the clock —
    /// never the RNG — so a timed run remains bit-identical to an
    /// untimed one.
    ///
    /// # Errors
    ///
    /// Same as [`run_seeded`](Nsga2::run_seeded).
    pub fn run_traced_timed<F>(&self, seed: u64, trace: F) -> Result<RunOutcome, OptimizeError>
    where
        P: Sync,
        F: FnMut(GenerationTrace<'_>),
    {
        let mut rng = StdRng::seed_from_u64(seed);
        self.run_with_rng(&mut rng, trace, true)
    }

    fn run_with_rng<R: Rng, F>(
        &self,
        rng: &mut R,
        mut trace: F,
        timed: bool,
    ) -> Result<RunOutcome, OptimizeError>
    where
        P: Sync,
        F: FnMut(GenerationTrace<'_>),
    {
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
        let n = self.config.population_size;
        let mut exec = self
            .config
            .exec
            .build_engine(self.problem.cache_canonicalizer());
        let eval_fn = |genes: &[f64]| self.problem.evaluate(genes);

        // Initialization: draw all genes first (sole RNG consumer), then
        // batch-evaluate through the engine.
        let init_genes: Vec<Vec<f64>> = (0..n).map(|_| random_vector(rng, &bounds)).collect();
        let init_evals = exec.try_evaluate_batch(&init_genes, &eval_fn)?;
        let mut pop: Vec<Individual> = init_genes
            .into_iter()
            .zip(init_evals)
            .map(|(genes, ev)| Individual::new(genes, ev))
            .collect();
        self.problem.check_evaluation(&pop[0].evaluation)?;
        rank_and_crowd(&mut pop);
        let mut history = Vec::with_capacity(self.config.generations + 1);
        history.push(generation_row(0, &pop));
        trace(GenerationTrace {
            generation: 0,
            population: &pop,
            faults: exec.take_fault_events(),
            evaluations: exec.stats().evaluations,
            timing: None,
        });

        let mut timer = StageTimer::new(timed);
        let mut stats_mark = exec.stats().clone();
        for gen in 1..=self.config.generations {
            // Offspring via crowded tournament + SBX + mutation: generate
            // the full gene batch, then evaluate it in one engine call.
            timer.start(Stage::Variation);
            let mut child_genes: Vec<Vec<f64>> = Vec::with_capacity(n);
            while child_genes.len() < n {
                let pa = binary_tournament(rng, &pop);
                let pb = binary_tournament(rng, &pop);
                let (c1, c2) = variation.offspring(rng, &pop[pa].genes, &pop[pb].genes, &bounds);
                child_genes.push(c1);
                if child_genes.len() < n {
                    child_genes.push(c2);
                }
            }
            timer.start(Stage::Evaluation);
            let child_evals = exec.try_evaluate_batch(&child_genes, &eval_fn)?;
            timer.stop();
            let offspring: Vec<Individual> = child_genes
                .into_iter()
                .zip(child_evals)
                .map(|(genes, ev)| Individual::new(genes, ev))
                .collect();
            // µ+λ environmental selection (the non-dominated sort and the
            // crowded truncation are fused, so both count as selection).
            timer.start(Stage::Selection);
            let mut combined = pop;
            combined.extend(offspring);
            pop = environmental_selection(combined, n);
            timer.stop();
            history.push(generation_row(gen, &pop));
            let timing = timed.then(|| {
                let delta = exec.stats().since(&stats_mark);
                stats_mark = exec.stats().clone();
                TraceTiming {
                    stages: timer.take(),
                    candidates: delta.candidates,
                    evaluations: delta.evaluations,
                    cache_hits: delta.cache_hits,
                }
            });
            trace(GenerationTrace {
                generation: gen,
                population: &pop,
                faults: exec.take_fault_events(),
                evaluations: exec.stats().evaluations,
                timing,
            });
        }

        // The reported front is the paper's semantics: one final global
        // competition on the entire (final) population.
        let front = feasible_front(&pop);
        let stats = exec.into_stats();
        Ok(RunOutcome {
            population: pop,
            front,
            evaluations: stats.evaluations as usize,
            generations: self.config.generations,
            gen_t: 0,
            history,
            phase_fronts: Vec::new(),
            migrations: 0,
            stats,
        })
    }
}

/// History row for a purely global (phase-2) generation.
fn generation_row(generation: usize, pop: &[Individual]) -> GenerationStats {
    GenerationStats {
        generation,
        phase: 2,
        temperature: 1.0,
        promoted: 0,
        feasible: pop.iter().filter(|m| m.is_feasible()).count(),
        population: pop.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{Schaffer, Zdt1};

    #[test]
    fn builder_validates() {
        assert!(Nsga2Config::builder().population_size(3).build().is_err());
        assert!(Nsga2Config::builder().population_size(5).build().is_err());
        assert!(Nsga2Config::builder().generations(0).build().is_err());
        assert!(Nsga2Config::builder().build().is_ok());
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let cfg = Nsga2Config::builder()
            .population_size(20)
            .generations(10)
            .build()
            .unwrap();
        let a = Nsga2::new(Schaffer::new(), cfg.clone())
            .run_seeded(7)
            .unwrap();
        let b = Nsga2::new(Schaffer::new(), cfg).run_seeded(7).unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = Nsga2Config::builder()
            .population_size(20)
            .generations(10)
            .build()
            .unwrap();
        let a = Nsga2::new(Schaffer::new(), cfg.clone())
            .run_seeded(7)
            .unwrap();
        let b = Nsga2::new(Schaffer::new(), cfg).run_seeded(8).unwrap();
        assert_ne!(a.front_objectives(), b.front_objectives());
    }

    #[test]
    fn evaluation_budget_accounted() {
        let cfg = Nsga2Config::builder()
            .population_size(10)
            .generations(5)
            .build()
            .unwrap();
        let r = Nsga2::new(Schaffer::new(), cfg).run_seeded(1).unwrap();
        assert_eq!(r.evaluations, 10 + 5 * 10);
        assert_eq!(r.generations, 5);
    }

    #[test]
    fn schaffer_converges_near_true_front() {
        // SCH true front: f2 = (sqrt(f1) - 2)^2 for f1 in [0,4].
        let cfg = Nsga2Config::builder()
            .population_size(60)
            .generations(60)
            .build()
            .unwrap();
        let r = Nsga2::new(Schaffer::new(), cfg).run_seeded(42).unwrap();
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
        use crate::hypervolume::hypervolume_2d;
        let problem = Zdt1::new(8);
        let cfg_short = Nsga2Config::builder()
            .population_size(40)
            .generations(5)
            .build()
            .unwrap();
        let cfg_long = Nsga2Config::builder()
            .population_size(40)
            .generations(80)
            .build()
            .unwrap();
        let to_pts = |r: &RunOutcome| -> Vec<[f64; 2]> {
            r.front
                .iter()
                .map(|m| [m.objective(0), m.objective(1)])
                .collect()
        };
        let short = Nsga2::new(&problem, cfg_short).run_seeded(3).unwrap();
        let long = Nsga2::new(&problem, cfg_long).run_seeded(3).unwrap();
        let hv_short = hypervolume_2d(&to_pts(&short), [1.1, 11.0]);
        let hv_long = hypervolume_2d(&to_pts(&long), [1.1, 11.0]);
        assert!(
            hv_long > hv_short,
            "hypervolume should improve: {hv_short} -> {hv_long}"
        );
    }

    #[test]
    fn trace_sees_every_generation() {
        let cfg = Nsga2Config::builder()
            .population_size(8)
            .generations(4)
            .build()
            .unwrap();
        let mut seen = Vec::new();
        let r = Nsga2::new(Schaffer::new(), cfg)
            .run_traced(1, |t| {
                seen.push((t.generation, t.population.len(), t.evaluations));
            })
            .unwrap();
        assert_eq!(seen.len(), 5); // init + 4 generations
        assert!(seen.iter().all(|&(_, n, _)| n == 8));
        // Cumulative evaluation counters are non-decreasing and end at
        // the run total.
        assert!(seen.windows(2).all(|w| w[0].2 <= w[1].2));
        assert_eq!(seen.last().unwrap().2 as usize, r.evaluations);
        // History mirrors the trace, one row per callback.
        assert_eq!(r.history.len(), 5);
        assert!(r.history.iter().all(|h| h.phase == 2 && h.promoted == 0));
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let cfg = Nsga2Config::builder()
            .population_size(16)
            .generations(6)
            .build()
            .unwrap();
        let plain = Nsga2::new(Schaffer::new(), cfg.clone())
            .run_seeded(11)
            .unwrap();
        let traced = Nsga2::new(Schaffer::new(), cfg)
            .run_traced(11, |_| {})
            .unwrap();
        assert_eq!(plain.front_objectives(), traced.front_objectives());
    }

    #[test]
    fn trace_surfaces_fault_events() {
        let cfg = Nsga2Config::builder()
            .population_size(16)
            .generations(6)
            .fault_policy(engine::FaultPolicy::tolerant(3))
            .inject_faults(engine::FaultPlan::seeded(5).panics(0.1))
            .build()
            .unwrap();
        let mut fault_total = 0;
        let r = Nsga2::new(Schaffer::new(), cfg)
            .run_traced(9, |t| fault_total += t.faults.len())
            .unwrap();
        assert_eq!(fault_total as u64, r.stats.recovered + r.stats.quarantined);
        assert!(fault_total > 0);
    }

    #[test]
    fn fault_injected_run_matches_fault_free_front() {
        let base = Nsga2Config::builder().population_size(24).generations(12);
        let clean_cfg = base.clone().build().unwrap();
        let faulty_cfg = base
            .fault_policy(engine::FaultPolicy::tolerant(3))
            .inject_faults(engine::FaultPlan::seeded(5).panics(0.05).nonfinite(0.05))
            .build()
            .unwrap();
        let clean = Nsga2::new(Schaffer::new(), clean_cfg)
            .run_seeded(9)
            .unwrap();
        let faulty = Nsga2::new(Schaffer::new(), faulty_cfg)
            .run_seeded(9)
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
    fn aborting_fault_policy_propagates_typed_error() {
        let cfg = Nsga2Config::builder()
            .population_size(8)
            .generations(2)
            .inject_faults(engine::FaultPlan::seeded(1).panics(1.0))
            .build()
            .unwrap();
        let err = Nsga2::new(Schaffer::new(), cfg).run_seeded(1).unwrap_err();
        match err {
            crate::OptimizeError::EvaluationFailed(f) => {
                assert_eq!(f.kind, engine::FaultKind::Panic)
            }
            other => panic!("expected EvaluationFailed, got {other:?}"),
        }
    }

    #[test]
    fn front_members_are_rank_zero_feasible() {
        let cfg = Nsga2Config::builder()
            .population_size(16)
            .generations(8)
            .build()
            .unwrap();
        let r = Nsga2::new(Schaffer::new(), cfg).run_seeded(2).unwrap();
        assert!(r.front.iter().all(|m| m.rank == 0 && m.is_feasible()));
    }
}
