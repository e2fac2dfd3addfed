//! MESACGA — Multi-phase Expanding-partitions SACGA (Sec. 4.5, Fig. 7).
//!
//! Rather than guessing the optimal static partition count, MESACGA starts
//! with many small partitions and repeatedly *expands* them: at the end of
//! each phase the partition count shrinks (capacity grows), local Pareto
//! fronts merge, and some locally-superior-but-globally-inferior solutions
//! are discarded — accelerating front movement while the earlier
//! fine-grained phases have already seeded diversity. The final phase has
//! a single partition covering the whole objective space, i.e. pure global
//! competition.
//!
//! The paper's example schedule: 7 phases of 20, 13, 8, 5, 3, 2, 1
//! partitions, each running `span` iterations, after a pure-local phase.
//!
//! [`Mesacga`] is a preset of the partitioned loop in [`steady`]:
//! SACGA's generational schedule with the [`PhaseSpec`] list as its
//! phase II. Each phase start regrids the population, re-ranks it
//! locally and emits a `PhaseTransition`; the annealing temperature
//! counts from the phase start; each phase end records that phase's
//! front (what Fig. 10 tracks). Checkpoints use the
//! `mesacga-checkpoint v1` text format, which adds the active phase, its
//! start and the finished phases' fronts.

use crate::anneal::ProbabilityShaper;
use crate::checkpoint::MesacgaCheckpoint;
use crate::sacga::SacgaConfig;
use crate::steady::{self, Launch, Phases, Plan, Resume};
use crate::telemetry::{Optimizer, Sink};
use moea::problem::Problem;
use moea::setup::EngineSetup;
use moea::{OptimizeError, RunOutcome, RunStatus};

/// One MESACGA phase: a partition count and how many generations to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Number of partitions during this phase.
    pub partitions: usize,
    /// Generations (the `span` of this phase's annealing schedule).
    pub span: usize,
}

impl PhaseSpec {
    /// Creates a phase spec.
    pub fn new(partitions: usize, span: usize) -> Self {
        PhaseSpec { partitions, span }
    }
}

/// Configuration of a MESACGA run.
#[derive(Debug, Clone, PartialEq)]
pub struct MesacgaConfig {
    pub(crate) base: SacgaConfig,
    pub(crate) phases: Vec<PhaseSpec>,
}

impl MesacgaConfig {
    /// Starts a builder.
    pub fn builder() -> MesacgaConfigBuilder {
        MesacgaConfigBuilder::default()
    }

    /// The phase schedule.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }
}

/// Builder for [`MesacgaConfig`].
#[derive(Debug, Clone)]
pub struct MesacgaConfigBuilder {
    population_size: usize,
    phase1_max: usize,
    phases: Vec<PhaseSpec>,
    shaper: ProbabilityShaper,
    n_superior: usize,
    roulette_decay: f64,
    slice_objective: usize,
    slice_range: Option<(f64, f64)>,
    variation: Option<moea::operators::Variation>,
    exec: EngineSetup,
}

impl Default for MesacgaConfigBuilder {
    fn default() -> Self {
        MesacgaConfigBuilder {
            population_size: 100,
            phase1_max: 50,
            phases: Self::paper_phase_counts(100),
            shaper: ProbabilityShaper::standard(),
            n_superior: 5,
            roulette_decay: 0.8,
            slice_objective: 0,
            slice_range: None,
            variation: None,
            exec: EngineSetup::new(),
        }
    }
}

impl MesacgaConfigBuilder {
    /// The paper's 7-phase schedule (20, 13, 8, 5, 3, 2, 1 partitions)
    /// with a uniform `span` per phase.
    pub fn paper_phase_counts(span: usize) -> Vec<PhaseSpec> {
        [20, 13, 8, 5, 3, 2, 1]
            .into_iter()
            .map(|m| PhaseSpec::new(m, span))
            .collect()
    }

    /// Sets the population size.
    pub fn population_size(mut self, n: usize) -> Self {
        self.population_size = n;
        self
    }

    /// Caps the pure-local phase I.
    pub fn phase1_max(mut self, cap: usize) -> Self {
        self.phase1_max = cap;
        self
    }

    /// Replaces the phase schedule.
    pub fn phases(mut self, phases: Vec<PhaseSpec>) -> Self {
        self.phases = phases;
        self
    }

    /// Uses the paper's 20/13/8/5/3/2/1 schedule with uniform `span`.
    pub fn paper_phases(mut self, span: usize) -> Self {
        self.phases = Self::paper_phase_counts(span);
        self
    }

    /// Overrides the probability-shaping targets.
    pub fn shaper(mut self, shaper: ProbabilityShaper) -> Self {
        self.shaper = shaper;
        self
    }

    /// Sets `n`, the desired globally superior solutions per partition.
    pub fn n_superior(mut self, n: usize) -> Self {
        self.n_superior = n;
        self
    }

    /// Sets the rank-roulette decay.
    pub fn roulette_decay(mut self, d: f64) -> Self {
        self.roulette_decay = d;
        self
    }

    /// Chooses the partitioned objective.
    pub fn slice_objective(mut self, k: usize) -> Self {
        self.slice_objective = k;
        self
    }

    /// Fixes the partitioned objective range a priori.
    pub fn slice_range(mut self, lo: f64, hi: f64) -> Self {
        self.slice_range = Some((lo, hi));
        self
    }

    /// Overrides the variation operators.
    pub fn variation(mut self, v: moea::operators::Variation) -> Self {
        self.variation = Some(v);
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
    /// Returns [`OptimizeError::InvalidConfig`] when the phase list is
    /// empty, any phase has zero partitions or zero span, or the base
    /// parameters are invalid (see [`SacgaConfig::builder`]).
    pub fn build(self) -> Result<MesacgaConfig, OptimizeError> {
        if self.phases.is_empty() {
            return Err(OptimizeError::invalid_config(
                "phases",
                "need at least one phase",
            ));
        }
        for (i, ph) in self.phases.iter().enumerate() {
            if ph.partitions == 0 {
                return Err(OptimizeError::invalid_config(
                    "phases",
                    format!("phase {i} has zero partitions"),
                ));
            }
            if ph.span == 0 {
                return Err(OptimizeError::invalid_config(
                    "phases",
                    format!("phase {i} has zero span"),
                ));
            }
        }
        let total: usize = self.phases.iter().map(|p| p.span).sum();
        let mut base_builder = SacgaConfig::builder()
            .population_size(self.population_size)
            .generations(self.phase1_max + total)
            .partitions(self.phases[0].partitions)
            .n_superior(self.n_superior)
            .phase1_max(self.phase1_max)
            .shaper(self.shaper)
            .roulette_decay(self.roulette_decay)
            .slice_objective(self.slice_objective)
            .engine_setup(self.exec);
        if let Some((lo, hi)) = self.slice_range {
            base_builder = base_builder.slice_range(lo, hi);
        }
        if let Some(v) = self.variation {
            base_builder = base_builder.variation(v);
        }
        let base = base_builder.build()?;
        Ok(MesacgaConfig {
            base,
            phases: self.phases,
        })
    }
}

/// The MESACGA optimizer.
#[derive(Debug)]
pub struct Mesacga<P: Problem> {
    problem: P,
    config: MesacgaConfig,
}

impl<P: Problem> Mesacga<P> {
    /// Creates an optimizer for `problem` with `config`.
    pub fn new(problem: P, config: MesacgaConfig) -> Self {
        Mesacga { problem, config }
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
        self.run(seed)
    }
}

impl<P: Problem + Sync> Mesacga<P> {
    /// Runs MESACGA as the generational preset of the partitioned loop
    /// ([`steady`]) with its phases as the phase-II list.
    fn execute(
        &self,
        launch: Launch<'_>,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<MesacgaCheckpoint>, OptimizeError> {
        let plan = Plan::generational(&self.config.base, Phases::List(&self.config.phases));
        steady::drive(&self.problem, plan, launch, stop_after, sink, |s| {
            MesacgaCheckpoint {
                state: s.state,
                phase_index: s.phase_index,
                phase_start: s.phase_start,
                phase_fronts: s.phase_fronts,
            }
        })
    }

    fn resume_from(checkpoint: &MesacgaCheckpoint) -> Launch<'_> {
        Launch::Resume(Resume {
            state: &checkpoint.state,
            pending: &[],
            phase: (checkpoint.phase_index, checkpoint.phase_start),
            phase_fronts: &checkpoint.phase_fronts,
        })
    }
}

impl<P: Problem + Sync> Optimizer for Mesacga<P> {
    type Checkpoint = MesacgaCheckpoint;

    fn algorithm(&self) -> &'static str {
        "mesacga"
    }

    fn run_until_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<MesacgaCheckpoint>, OptimizeError> {
        self.execute(Launch::Seed(seed), stop_after, sink)
    }

    fn resume_until_with(
        &self,
        checkpoint: &MesacgaCheckpoint,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<MesacgaCheckpoint>, OptimizeError> {
        self.execute(Self::resume_from(checkpoint), stop_after, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{MemorySink, RunEvent};
    use moea::individual::Individual;
    use moea::problems::{NarrowingCorridor, Schaffer};

    fn quick_config() -> MesacgaConfig {
        MesacgaConfig::builder()
            .population_size(40)
            .phase1_max(5)
            .phases(vec![
                PhaseSpec::new(8, 10),
                PhaseSpec::new(4, 10),
                PhaseSpec::new(1, 10),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_phases() {
        assert!(MesacgaConfig::builder().phases(vec![]).build().is_err());
        assert!(MesacgaConfig::builder()
            .phases(vec![PhaseSpec::new(0, 10)])
            .build()
            .is_err());
        assert!(MesacgaConfig::builder()
            .phases(vec![PhaseSpec::new(4, 0)])
            .build()
            .is_err());
        assert!(MesacgaConfig::builder().build().is_ok());
    }

    #[test]
    fn paper_schedule_shape() {
        let phases = MesacgaConfigBuilder::paper_phase_counts(150);
        assert_eq!(phases.len(), 7);
        let counts: Vec<usize> = phases.iter().map(|p| p.partitions).collect();
        assert_eq!(counts, vec![20, 13, 8, 5, 3, 2, 1]);
        assert!(phases.iter().all(|p| p.span == 150));
    }

    #[test]
    fn run_produces_front_and_phase_snapshots() {
        let r = Mesacga::new(Schaffer::new(), quick_config())
            .run_seeded(5)
            .unwrap();
        assert!(!r.front.is_empty());
        assert_eq!(r.phase_fronts.len(), 3);
        assert!(r.phase_fronts.iter().all(|f| !f.is_empty()));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Mesacga::new(Schaffer::new(), quick_config())
            .run_seeded(6)
            .unwrap();
        let b = Mesacga::new(Schaffer::new(), quick_config())
            .run_seeded(6)
            .unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
    }

    #[test]
    fn generations_total_phase1_plus_spans() {
        let r = Mesacga::new(Schaffer::new(), quick_config())
            .run_seeded(7)
            .unwrap();
        // phase 1 ends immediately on an unconstrained problem
        assert_eq!(r.generations, r.gen_t + 30);
    }

    #[test]
    fn phase_fronts_quality_non_degrading_on_average() {
        use moea::hypervolume::hypervolume_2d;
        let r = Mesacga::new(Schaffer::new(), quick_config())
            .run_seeded(8)
            .unwrap();
        let hv = |front: &[Individual]| {
            let pts: Vec<[f64; 2]> = front
                .iter()
                .map(|m| [m.objective(0), m.objective(1)])
                .collect();
            hypervolume_2d(&pts, [16.0, 16.0])
        };
        let first = hv(&r.phase_fronts[0]);
        let last = hv(r.phase_fronts.last().unwrap());
        assert!(
            last >= first * 0.9,
            "front should not collapse across phases: {first} -> {last}"
        );
    }

    #[test]
    fn constrained_problem_runs_through_all_phases() {
        let cfg = MesacgaConfig::builder()
            .population_size(30)
            .phase1_max(8)
            .phases(vec![PhaseSpec::new(6, 8), PhaseSpec::new(2, 8)])
            .slice_range(-1.0, 0.0)
            .build()
            .unwrap();
        let r = Mesacga::new(NarrowingCorridor::new(0.05), cfg)
            .run_seeded(9)
            .unwrap();
        assert_eq!(r.phase_fronts.len(), 2);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn generation_end_emitted_every_generation() {
        let mut sink = MemorySink::new();
        let r = Mesacga::new(Schaffer::new(), quick_config())
            .run_with(1, &mut sink)
            .unwrap();
        let gens: Vec<usize> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                RunEvent::GenerationEnd { generation, .. } => Some(*generation),
                _ => None,
            })
            .collect();
        // One GenerationEnd per executed generation, in order, none for
        // the initial population.
        assert_eq!(gens, (1..=r.generations).collect::<Vec<_>>());
    }

    #[test]
    fn phase_transition_emitted_once_per_expanding_phase() {
        let mut sink = MemorySink::new();
        let r = Mesacga::new(Schaffer::new(), quick_config())
            .run_with(2, &mut sink)
            .unwrap();
        let transitions: Vec<(usize, usize)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                RunEvent::PhaseTransition {
                    phase_index,
                    partitions,
                    ..
                } => Some((*phase_index, *partitions)),
                _ => None,
            })
            .collect();
        assert_eq!(transitions, vec![(0, 8), (1, 4), (2, 1)]);
        // Every phase-II generation reports its promotion pressure.
        let promotions = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::Promotion { .. }))
            .count();
        assert_eq!(promotions, r.generations - r.gen_t);
    }

    #[test]
    fn sink_attached_run_is_bit_identical_to_bare_run() {
        let bare = Mesacga::new(Schaffer::new(), quick_config())
            .run_seeded(3)
            .unwrap();
        let mut sink = MemorySink::new();
        let watched = Mesacga::new(Schaffer::new(), quick_config())
            .run_with(3, &mut sink)
            .unwrap();
        assert_eq!(bare.front_objectives(), watched.front_objectives());
        assert_eq!(bare.history, watched.history);
        assert!(!sink.events().is_empty());
    }

    /// Strips wall-clock timing so stats can be compared across runs.
    fn scrub(mut stats: engine::EngineStats) -> engine::EngineStats {
        stats.eval_time = std::time::Duration::ZERO;
        stats.backoff_time = std::time::Duration::ZERO;
        stats
    }

    fn objectives_of(pop: &[Individual]) -> Vec<Vec<f64>> {
        pop.iter().map(|m| m.objectives().to_vec()).collect()
    }

    #[test]
    fn kill_mid_phase_and_resume_matches_uninterrupted_run() {
        let full = Mesacga::new(Schaffer::new(), quick_config())
            .run_seeded(12)
            .unwrap();
        // Stop points cover: before any generation, inside each expanding
        // phase (quick_config spans three phases of 10 generations each
        // after phase I), and near the end of the run.
        for stop in [0usize, 5, 11, 15, 21, 28] {
            let ga = Mesacga::new(Schaffer::new(), quick_config());
            let cp = match ga.run_until(12, stop).unwrap() {
                RunStatus::Suspended(cp) => cp,
                RunStatus::Complete(_) => panic!("run should suspend at gen {stop}"),
            };
            assert_eq!(cp.state.gen, stop);
            let resumed = ga.resume(&cp).unwrap();
            assert_eq!(resumed.front_objectives(), full.front_objectives());
            assert_eq!(resumed.history, full.history);
            assert_eq!(resumed.phase_fronts.len(), full.phase_fronts.len());
            for (a, b) in resumed.phase_fronts.iter().zip(&full.phase_fronts) {
                assert_eq!(objectives_of(a), objectives_of(b));
            }
            assert_eq!(scrub(resumed.stats), scrub(full.stats.clone()));
        }
    }

    #[test]
    fn checkpoint_text_round_trip_resumes_identically() {
        let ga = Mesacga::new(Schaffer::new(), quick_config());
        let full = Mesacga::new(Schaffer::new(), quick_config())
            .run_seeded(14)
            .unwrap();
        // Suspend mid-second-phase so the checkpoint carries a phase front.
        let cp = match ga.run_until(14, 15).unwrap() {
            RunStatus::Suspended(cp) => cp,
            RunStatus::Complete(_) => panic!("run should suspend"),
        };
        assert!(!cp.phase_fronts.is_empty());
        let restored = MesacgaCheckpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(*cp, restored);
        let resumed = ga.resume(&restored).unwrap();
        assert_eq!(resumed.front_objectives(), full.front_objectives());
        assert_eq!(resumed.history, full.history);
    }

    #[test]
    fn resume_until_chains_across_checkpoints() {
        let full = Mesacga::new(Schaffer::new(), quick_config())
            .run_seeded(15)
            .unwrap();
        let ga = Mesacga::new(Schaffer::new(), quick_config());
        let mut run = ga.run_until(15, 6).unwrap();
        let mut hops = 0;
        let result = loop {
            match run {
                RunStatus::Complete(r) => break *r,
                RunStatus::Suspended(cp) => {
                    hops += 1;
                    run = ga.resume_until(&cp, cp.state.gen + 6).unwrap();
                }
            }
        };
        assert!(hops >= 4, "expected several suspensions, got {hops}");
        assert_eq!(result.front_objectives(), full.front_objectives());
        assert_eq!(result.history, full.history);
    }

    #[test]
    fn fault_injected_run_matches_fault_free_front() {
        let base = MesacgaConfig::builder()
            .population_size(40)
            .phase1_max(5)
            .phases(vec![PhaseSpec::new(6, 8), PhaseSpec::new(2, 8)]);
        let clean_cfg = base.clone().build().unwrap();
        let faulty_cfg = base
            .engine_setup(
                EngineSetup::new()
                    .fault_policy(engine::FaultPolicy::tolerant(3))
                    .inject_faults(engine::FaultPlan::seeded(21).panics(0.05).nonfinite(0.05)),
            )
            .build()
            .unwrap();
        let clean = Mesacga::new(Schaffer::new(), clean_cfg)
            .run_seeded(16)
            .unwrap();
        let faulty = Mesacga::new(Schaffer::new(), faulty_cfg)
            .run_seeded(16)
            .unwrap();
        assert_eq!(clean.front_objectives(), faulty.front_objectives());
        assert!(faulty.stats.failures > 0);
        assert_eq!(
            faulty.stats.failures,
            faulty.stats.injected_panics + faulty.stats.injected_nonfinite
        );
        assert_eq!(faulty.stats.recovered, faulty.stats.failures);
    }

    #[test]
    fn exhausted_checkpoint_is_rejected() {
        let ga = Mesacga::new(Schaffer::new(), quick_config());
        // Drive to the last generation, grab the final checkpoint, finish
        // it, then check a claim past the schedule is rejected on resume.
        let cp = match ga.run_until(17, 30).unwrap() {
            RunStatus::Suspended(cp) => cp,
            RunStatus::Complete(_) => panic!("run should suspend at gen 30"),
        };
        let mut doctored = (*cp).clone();
        doctored.phase_index = quick_config().phases().len();
        assert!(matches!(
            ga.resume(&doctored),
            Err(OptimizeError::InvalidCheckpoint { .. })
        ));
        // The genuine checkpoint still resumes fine.
        assert!(ga.resume(&cp).is_ok());
    }
}
