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
//!
//! [`Sacga`] is the generational preset of the partitioned loop in
//! [`steady`]: the look-ahead window and the merge quantum are the
//! population size, so each generation is bred, evaluated and merged
//! whole, and phase II is one annealing phase over the rest of the
//! budget. [`CompetitionMode::LocalOnly`] never promotes, which is the
//! local-competition GA of [`crate::local`]. Checkpoints use the
//! `sacga-checkpoint v1` text format.

use crate::anneal::ProbabilityShaper;
use crate::checkpoint::SacgaCheckpoint;
use crate::steady::{self, Launch, Phases, Plan, Resume};
use crate::telemetry::{expect_complete, NullSink, Optimizer, Sink};
use engine::EngineConfig;
use moea::operators::Variation;
use moea::problem::Problem;
use moea::setup::EngineSetup;
use moea::{OptimizeError, RunOutcome, RunStatus};

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

    /// Sets the engine knobs (evaluator, memo cache, fault handling,
    /// pooled cache, screen, metrics) as one [`EngineSetup`] bundle
    /// (default: [`EngineSetup::new`]).
    pub fn engine_setup(mut self, exec: EngineSetup) -> Self {
        self.exec = exec;
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
        self.run_with(seed, &mut NullSink)
    }
}

impl<P: Problem + Sync> Sacga<P> {
    /// Runs SACGA as the generational preset of the partitioned loop
    /// ([`steady`]): window and quantum are the population, and phase II
    /// is one phase over the rest of the budget. Nothing is in flight at
    /// a generation boundary, so a suspension is the steady state
    /// without a pending list.
    fn execute(
        &self,
        launch: Launch<'_>,
        stop_after: Option<usize>,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<SacgaCheckpoint>, OptimizeError> {
        let plan = Plan::generational(&self.config, Phases::Rest);
        steady::drive(&self.problem, plan, launch, stop_after, sink, |s| {
            SacgaCheckpoint { state: s.state }
        })
    }

    fn resume_from(checkpoint: &SacgaCheckpoint) -> Launch<'_> {
        Launch::Resume(Resume {
            state: &checkpoint.state,
            pending: &[],
            phase: (0, checkpoint.state.gen_t),
            phase_fronts: &[],
        })
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
        self.execute(Launch::Seed(seed), None, sink)
            .map(expect_complete)
    }

    fn run_until_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<SacgaCheckpoint>, OptimizeError> {
        self.execute(Launch::Seed(seed), Some(stop_after), sink)
    }

    fn resume_with(
        &self,
        checkpoint: &SacgaCheckpoint,
        sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError> {
        self.execute(Self::resume_from(checkpoint), None, sink)
            .map(expect_complete)
    }

    fn resume_until_with(
        &self,
        checkpoint: &SacgaCheckpoint,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<SacgaCheckpoint>, OptimizeError> {
        self.execute(Self::resume_from(checkpoint), Some(stop_after), sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EventKind, MemorySink, RunEvent};
    use engine::{EngineStats, FaultPlan, FaultPolicy};
    use moea::individual::Individual;
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
        assert_eq!(a.stats.evaluations, b.stats.evaluations);
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
        assert_eq!(r.stats.evaluations, 40 + 15 * 40);
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
            .engine_setup(
                EngineSetup::new()
                    .fault_policy(FaultPolicy::tolerant(3))
                    .inject_faults(FaultPlan::seeded(11).panics(0.05).nonfinite(0.05)),
            )
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
            .engine_setup(
                EngineSetup::new()
                    .fault_policy(FaultPolicy::tolerant(3))
                    .inject_faults(FaultPlan::seeded(13).panics(0.08)),
            )
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
            .engine_setup(EngineSetup::new().inject_faults(FaultPlan::seeded(1).panics(1.0)))
            .build()
            .unwrap();
        let err = Sacga::new(Schaffer::new(), cfg).run_seeded(1).unwrap_err();
        match err {
            OptimizeError::EvaluationFailed(f) => assert_eq!(f.kind, engine::FaultKind::Panic),
            other => panic!("expected EvaluationFailed, got {other:?}"),
        }
    }
}
