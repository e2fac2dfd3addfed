//! The partitioned-population loop: steady-state SACGA, and the
//! generational SACGA, local-competition GA and MESACGA as its presets.
//!
//! A generational schedule evaluates each offspring batch behind a
//! barrier: no candidate of generation `g+1` is produced until every
//! candidate of generation `g` has been evaluated, so one slow
//! evaluation stalls the whole loop. [`SteadySacga`] drives SACGA
//! through the engine's [`EvaluationSession`] submission/completion API
//! instead:
//!
//! * **Production runs ahead of merging.** Offspring are submitted as
//!   selection produces them, up to a look-ahead
//!   [`window`](SteadyConfigBuilder::window) of unmerged submissions.
//!   Under a parallel evaluator they evaluate concurrently with the
//!   control thread's own selection and ranking work.
//! * **Merging is incremental.** Completed evaluations are folded into
//!   the partitioned population in [`quantum`](SteadyConfigBuilder::quantum)-sized
//!   merges — absorb, local truncation, local re-ranking — and each merge
//!   immediately refreshes the selection basis (including the SA-gated
//!   promotion gamble in phase II), so later offspring of the *same*
//!   generation are already bred from the updated population.
//! * **Merges are deterministic.** The session hands completions back in
//!   submission order regardless of completion interleaving, and every
//!   RNG draw happens on the control thread, so a seeded run is
//!   bit-identical whether it executes serially or over any number of
//!   workers.
//!
//! A *generation* remains the bookkeeping unit: every
//! `population_size` merges the run crosses a generation boundary, where
//! history rows, telemetry events, the end of phase I, phase starts and
//! ends, and suspension are handled. Phase II is a list of annealing
//! phases: one over the rest of the budget for SACGA and the steady arm,
//! MESACGA's expanding-partition phases for [`Mesacga`](crate::mesacga::Mesacga).
//!
//! With `window == quantum == population_size` the loop is the
//! generational schedule, and that is how [`Sacga`](crate::sacga::Sacga)
//! (in both competition modes) and [`Mesacga`](crate::mesacga::Mesacga)
//! run: as presets of this loop, each opening one session for the whole
//! run. Nothing is in flight at their generation boundaries, so their
//! checkpoints carry no pending list.
//!
//! Suspension ([`Optimizer::run_until`]) happens at a generation
//! boundary, but production may already have run ahead; the look-ahead's
//! completed evaluations travel inside the
//! [`SteadyCheckpoint`] (`pending`) and are primed back into a fresh
//! session on resume, keeping killed-and-resumed runs bit-identical to
//! uninterrupted ones.

use std::collections::VecDeque;

use crate::anneal::{AnnealingSchedule, ProbabilityShaper, PromotionPolicy};
use crate::checkpoint::{EngineState, SavedIndividual, SteadyCheckpoint};
use crate::frame::{self, feasible_front, ranked_copy, Frame, Ranks};
use crate::mesacga::PhaseSpec;
use crate::partition::{PartitionGrid, PartitionedPopulation};
use crate::sacga::{CompetitionMode, GenerationStats, SacgaConfig, SacgaConfigBuilder};
use crate::telemetry::{EventKind, Optimizer, RunEvent, Sink};
use engine::{EngineConfig, EvaluationSession, Stage};
use moea::individual::Individual;
use moea::operators::{random_vector, Variation};
use moea::problem::Problem;
use moea::selection::{RankRoulette, RouletteWheel};
use moea::setup::EngineSetup;
use moea::sorting::rank_and_crowd;
use moea::{Bounds, Evaluation, OptimizeError, RunOutcome, RunStatus};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of a steady-state SACGA run. Build with
/// [`SteadyConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyConfig {
    pub(crate) base: SacgaConfig,
    pub(crate) window: usize,
    pub(crate) quantum: usize,
}

impl SteadyConfig {
    /// Starts a configuration builder.
    pub fn builder() -> SteadyConfigBuilder {
        SteadyConfigBuilder::default()
    }

    /// Population size.
    pub fn population_size(&self) -> usize {
        self.base.population_size()
    }

    /// Total generation budget (phase I + phase II).
    pub fn generations(&self) -> usize {
        self.base.generations()
    }

    /// Number of partitions `m`.
    pub fn partitions(&self) -> usize {
        self.base.partitions()
    }

    /// Maximum number of submitted-but-unmerged offspring.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of completions folded per merge.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// Evaluation-engine settings.
    pub fn engine(&self) -> &EngineConfig {
        self.base.engine()
    }
}

/// Builder for [`SteadyConfig`]: every SACGA knob plus the steady-state
/// `window` and `quantum`.
#[derive(Debug, Clone)]
pub struct SteadyConfigBuilder {
    inner: SacgaConfigBuilder,
    window: Option<usize>,
    quantum: Option<usize>,
}

impl Default for SteadyConfigBuilder {
    fn default() -> Self {
        SteadyConfigBuilder {
            inner: SacgaConfig::builder(),
            window: None,
            quantum: None,
        }
    }
}

impl SteadyConfigBuilder {
    /// Sets the population size (≥ 4, even).
    pub fn population_size(mut self, n: usize) -> Self {
        self.inner = self.inner.population_size(n);
        self
    }

    /// Sets the total generation budget.
    pub fn generations(mut self, n: usize) -> Self {
        self.inner = self.inner.generations(n);
        self
    }

    /// Sets the partition count `m` (≥ 1).
    pub fn partitions(mut self, m: usize) -> Self {
        self.inner = self.inner.partitions(m);
        self
    }

    /// Sets `n`, the desired number of globally superior solutions per
    /// partition (≥ 2).
    pub fn n_superior(mut self, n: usize) -> Self {
        self.inner = self.inner.n_superior(n);
        self
    }

    /// Caps the pure-local phase (default: a quarter of the budget).
    pub fn phase1_max(mut self, cap: usize) -> Self {
        self.inner = self.inner.phase1_max(cap);
        self
    }

    /// Overrides the probability-shaping targets.
    pub fn shaper(mut self, shaper: ProbabilityShaper) -> Self {
        self.inner = self.inner.shaper(shaper);
        self
    }

    /// Overrides the variation operators.
    pub fn variation(mut self, v: Variation) -> Self {
        self.inner = self.inner.variation(v);
        self
    }

    /// Sets the geometric rank-roulette decay in `(0, 1]`.
    pub fn roulette_decay(mut self, d: f64) -> Self {
        self.inner = self.inner.roulette_decay(d);
        self
    }

    /// Chooses which objective's range is partitioned (default 0).
    pub fn slice_objective(mut self, k: usize) -> Self {
        self.inner = self.inner.slice_objective(k);
        self
    }

    /// Fixes the partitioned range a priori.
    pub fn slice_range(mut self, lo: f64, hi: f64) -> Self {
        self.inner = self.inner.slice_range(lo, hi);
        self
    }

    /// Switches between full SACGA and the pure-local baseline.
    pub fn mode(mut self, mode: CompetitionMode) -> Self {
        self.inner = self.inner.mode(mode);
        self
    }

    /// Sets the look-ahead window: the maximum number of offspring
    /// submitted but not yet merged (≥ 2; default: the population size).
    /// Offspring are produced in crossover pairs, so an odd window
    /// admits one extra in-flight candidate.
    ///
    /// Larger windows keep more evaluations in flight but breed from a
    /// staler selection basis — a window beyond the population size
    /// means some of a generation's offspring were bred before the
    /// previous generation merged. On constrained problems that lag
    /// slows phase I, so budget [`phase1_max`](Self::phase1_max)
    /// accordingly (at any window, a run whose partitions are all
    /// infeasible at the cap discards every partition).
    pub fn window(mut self, window: usize) -> Self {
        self.window = Some(window);
        self
    }

    /// Sets the merge quantum: how many completions are folded into the
    /// population per merge (≥ 1; default: a quarter of the population).
    /// Smaller quanta refresh the selection basis more often; a quantum
    /// of `population_size` merges a whole generation at once.
    pub fn quantum(mut self, quantum: usize) -> Self {
        self.quantum = Some(quantum);
        self
    }

    /// Sets the engine knobs (evaluator, memo cache, fault handling,
    /// pooled cache, screen, metrics) as one [`EngineSetup`] bundle
    /// (default: [`EngineSetup::new`]).
    pub fn engine_setup(mut self, exec: EngineSetup) -> Self {
        self.inner = self.inner.engine_setup(exec);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Same as [`SacgaConfigBuilder::build`], plus
    /// [`OptimizeError::InvalidConfig`] for a window below 2 or a zero
    /// quantum.
    pub fn build(self) -> Result<SteadyConfig, OptimizeError> {
        let base = self.inner.build()?;
        let window = self.window.unwrap_or_else(|| base.population_size());
        let quantum = self
            .quantum
            .unwrap_or_else(|| (base.population_size() / 4).max(1));
        if window < 2 {
            return Err(OptimizeError::invalid_config(
                "window",
                "must be at least 2 (offspring are produced in pairs)",
            ));
        }
        if quantum == 0 {
            return Err(OptimizeError::invalid_config(
                "quantum",
                "must be at least 1",
            ));
        }
        Ok(SteadyConfig {
            base,
            window,
            quantum,
        })
    }
}

/// The phase-II plan of a partitioned run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phases<'a> {
    /// One phase at the configured partition count over the rest of the
    /// budget, `generations − gen_t` (SACGA, the local-competition GA and
    /// the steady arm).
    Rest,
    /// An explicit list of phases (MESACGA's expanding partitions). Each
    /// phase end records a phase front.
    List(&'a [PhaseSpec]),
}

/// Everything a partitioned run executes: the SACGA knobs, the
/// look-ahead window and merge quantum, and the phase-II plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan<'a> {
    pub(crate) base: &'a SacgaConfig,
    pub(crate) window: usize,
    pub(crate) quantum: usize,
    pub(crate) phases: Phases<'a>,
}

impl<'a> Plan<'a> {
    /// The generational schedule: window and quantum are the population,
    /// so each generation is produced and merged whole and nothing is in
    /// flight at a generation boundary.
    pub(crate) fn generational(base: &'a SacgaConfig, phases: Phases<'a>) -> Self {
        Plan {
            base,
            window: base.population_size,
            quantum: base.population_size,
            phases,
        }
    }
}

/// How a drive begins: a fresh seed or a stored state.
pub(crate) enum Launch<'c> {
    Seed(u64),
    Resume(Resume<'c>),
}

/// A stored state to resume from, with the parts that only some
/// checkpoint formats carry left empty by the others.
pub(crate) struct Resume<'c> {
    pub(crate) state: &'c EngineState,
    /// Completed look-ahead evaluations (steady checkpoints only).
    pub(crate) pending: &'c [SavedIndividual],
    /// The active phase and the generation it started at; read only once
    /// phase I is done.
    pub(crate) phase: (usize, usize),
    /// Fronts of the phases already finished (MESACGA only).
    pub(crate) phase_fronts: &'c [Vec<SavedIndividual>],
}

/// A suspended partitioned run: the union of what the SACGA, MESACGA and
/// steady checkpoint formats store.
pub(crate) struct Suspension {
    pub(crate) state: EngineState,
    pub(crate) pending: Vec<SavedIndividual>,
    pub(crate) phase_index: usize,
    pub(crate) phase_start: usize,
    pub(crate) phase_fronts: Vec<Vec<SavedIndividual>>,
}

/// The steady-state SACGA optimizer.
///
/// # Examples
///
/// ```
/// use sacga::steady::{SteadyConfig, SteadySacga};
/// use moea::problems::Schaffer;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let config = SteadyConfig::builder()
///     .population_size(24)
///     .generations(12)
///     .partitions(4)
///     .window(32)
///     .quantum(6)
///     .build()?;
/// let ga = SteadySacga::new(Schaffer::new(), config);
/// assert!(!ga.run_seeded(7)?.front.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SteadySacga<P: Problem> {
    problem: P,
    config: SteadyConfig,
}

impl<P: Problem> SteadySacga<P> {
    /// Creates an optimizer for `problem` with `config`.
    pub fn new(problem: P, config: SteadyConfig) -> Self {
        SteadySacga { problem, config }
    }

    /// Runs with a seeded RNG and no instrumentation (equivalent to
    /// [`Optimizer::run`]).
    ///
    /// # Errors
    ///
    /// Propagates problem-definition errors discovered at start-up and
    /// [`OptimizeError::EvaluationFailed`] when a candidate evaluation
    /// exhausts an aborting fault policy's retry budget.
    pub fn run_seeded(&self, seed: u64) -> Result<RunOutcome, OptimizeError>
    where
        P: Sync,
    {
        self.run(seed)
    }
}

impl<P: Problem + Sync> SteadySacga<P> {
    fn execute(
        &self,
        launch: Launch<'_>,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<SteadyCheckpoint>, OptimizeError> {
        let plan = Plan {
            base: &self.config.base,
            window: self.config.window,
            quantum: self.config.quantum,
            phases: Phases::Rest,
        };
        drive(&self.problem, plan, launch, stop_after, sink, |s| {
            SteadyCheckpoint {
                state: s.state,
                pending: s.pending,
            }
        })
    }

    fn resume_from(checkpoint: &SteadyCheckpoint) -> Launch<'_> {
        Launch::Resume(Resume {
            state: &checkpoint.state,
            pending: &checkpoint.pending,
            phase: (0, checkpoint.state.gen_t),
            phase_fronts: &[],
        })
    }
}

impl<P: Problem + Sync> Optimizer for SteadySacga<P> {
    type Checkpoint = SteadyCheckpoint;

    fn algorithm(&self) -> &'static str {
        "steady"
    }

    fn run_until_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<SteadyCheckpoint>, OptimizeError> {
        self.execute(Launch::Seed(seed), stop_after, sink)
    }

    fn resume_until_with(
        &self,
        checkpoint: &SteadyCheckpoint,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<SteadyCheckpoint>, OptimizeError> {
        self.execute(Self::resume_from(checkpoint), stop_after, sink)
    }
}

/// Runs a partitioned population under `plan`: the loop behind SACGA, the
/// local-competition GA, MESACGA and the steady arm. The whole drive
/// executes inside one [`EvaluationSession`], so under a parallel
/// evaluator the worker pool lives for the entire run. A suspension is
/// written into the caller's format by `checkpoint`.
pub(crate) fn drive<P: Problem + Sync, C>(
    problem: &P,
    plan: Plan<'_>,
    launch: Launch<'_>,
    stop_after: usize,
    sink: &mut dyn Sink,
    checkpoint: impl FnOnce(Suspension) -> C,
) -> Result<RunStatus<C>, OptimizeError> {
    let base = plan.base;
    frame::check_problem(problem)?;
    match &launch {
        Launch::Seed(_) => {
            if base.slice_objective >= problem.num_objectives() {
                return Err(OptimizeError::invalid_config(
                    "slice_objective",
                    format!(
                        "objective {} out of range for a {}-objective problem",
                        base.slice_objective,
                        problem.num_objectives()
                    ),
                ));
            }
        }
        Launch::Resume(resume) => {
            if resume.state.grid_objective >= problem.num_objectives() {
                return Err(OptimizeError::invalid_checkpoint(format!(
                    "checkpoint slices objective {} but the problem declares {}",
                    resume.state.grid_objective,
                    problem.num_objectives()
                )));
            }
        }
    }
    let mut exec = base.exec.build_engine(problem.cache_canonicalizer());
    if let Launch::Resume(resume) = &launch {
        exec.restore_stats(resume.state.stats.clone());
    }
    let eval = |genes: &[f64]| problem.evaluate(genes);
    let status = exec.with_session(&eval, |session| {
        run_loop(problem, plan, launch, stop_after, sink, session)
    })?;
    Ok(match status {
        RunStatus::Complete(outcome) => RunStatus::Complete(outcome),
        RunStatus::Suspended(s) => RunStatus::Suspended(Box::new(checkpoint(*s))),
    })
}

/// The partitioned loop proper, generic over the session's evaluation
/// closure.
fn run_loop<P, F>(
    problem: &P,
    plan: Plan<'_>,
    launch: Launch<'_>,
    stop_after: usize,
    sink: &mut dyn Sink,
    session: &mut EvaluationSession<'_, Evaluation, F>,
) -> Result<RunStatus<Suspension>, OptimizeError>
where
    P: Problem,
    F: Fn(&[f64]) -> Evaluation + Sync,
{
    let base = plan.base;
    let n = base.population_size;
    let bounds = problem.bounds().clone();
    let mut flow = match launch {
        Launch::Seed(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            let initial = frame::initial_population(problem, session, &mut rng, n)?;
            let grid = match base.slice_range {
                Some((lo, hi)) => {
                    PartitionGrid::new(base.slice_objective, lo, hi, base.partitions)?
                }
                None => {
                    PartitionGrid::from_population(base.slice_objective, &initial, base.partitions)?
                }
            };
            let mut pop = PartitionedPopulation::distribute(grid, initial);
            pop.rank_locally();
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
            let frame = Frame::open(sink, session, 0);
            Flow::new(plan, bounds, rng, pop, history, flat_cache, frame)
        }
        Launch::Resume(resume) => {
            let state = resume.state;
            let grid = PartitionGrid::new(
                state.grid_objective,
                state.grid_lo,
                state.grid_hi,
                state.grid_partitions,
            )
            .map_err(|e| {
                OptimizeError::invalid_checkpoint(format!("stored grid is invalid: {e}"))
            })?;
            let members = state
                .partitions
                .iter()
                .map(|part| frame::restore(problem, part))
                .collect::<Result<Vec<_>, _>>()?;
            let pending = frame::restore(problem, resume.pending)?;
            let phase_fronts = resume
                .phase_fronts
                .iter()
                .map(|f| frame::restore(problem, f))
                .collect::<Result<Vec<_>, _>>()?;
            let pop = PartitionedPopulation::from_parts(grid, members, state.alive.clone())?;
            let flat_cache = pop.flatten();
            let frame = Frame::open(sink, session, state.gen);
            let mut flow = Flow::new(
                plan,
                bounds,
                StdRng::from_state(state.rng),
                pop,
                state.history.clone(),
                flat_cache,
                frame,
            );
            flow.gen = state.gen;
            flow.merged = state.gen * n;
            flow.produced = flow.merged + pending.len();
            flow.phase_fronts = phase_fronts;
            // Replay the look-ahead: primed completions occupy the
            // session's first submission indices with no stats impact,
            // exactly as the killed run left them.
            for p in pending {
                session.prime(p.evaluation);
                flow.queue.push_back(p.genes);
            }
            if state.phase1_done {
                // A checkpoint is taken inside a phase, after its start:
                // resuming skips the regrid and reuses the phase origin.
                flow.end_phase1(state.gen_t);
                (flow.phase_index, flow.phase_start) = resume.phase;
                if flow.finished() {
                    return Err(OptimizeError::invalid_checkpoint(format!(
                        "phase index {} out of range for a {}-phase schedule",
                        flow.phase_index,
                        flow.phases.len()
                    )));
                }
                flow.arm_phase()?;
            }
            flow
        }
    };
    let mut feasibility = (sink.wants(EventKind::PartitionFeasible) && !flow.phase1_done)
        .then(|| flow.partition_feasibility());

    loop {
        flow.advance(sink)?;
        if flow.phase1_done {
            feasibility = None;
        }
        if flow.finished() {
            return Ok(RunStatus::Complete(Box::new(RunOutcome {
                gen_t: flow.gen_t,
                phase_fronts: flow.phase_fronts,
                ..frame::finish(flow.pop.flatten(), flow.gen, flow.history, session.stats())
            })));
        }
        if flow.gen >= stop_after {
            return flow.suspend(session, sink);
        }

        // --- produce and merge the next generation's window
        flow.begin_window();
        let target = (flow.gen + 1) * n;
        while flow.merged < target {
            flow.top_up(session);
            flow.merge(session, target)?;
            if flow.merged < target {
                flow.refresh_selection();
            }
        }

        // --- generation boundary
        flow.gen += 1;
        flow.flat_cache = flow.pop.flatten();
        let row = flow.record();
        if let Some(before) = &mut feasibility {
            let now = flow.partition_feasibility();
            for (p, (was, is)) in before.iter().zip(&now).enumerate() {
                if !was && *is {
                    sink.record(&RunEvent::PartitionFeasible {
                        generation: flow.gen,
                        partition: p,
                    });
                }
            }
            *before = now;
        }
        if flow.phase2() && sink.wants(EventKind::Promotion) {
            sink.record(&RunEvent::Promotion {
                generation: flow.gen,
                promoted: flow.window_promoted,
                candidates: flow.window_candidates,
            });
        }
        flow.frame
            .end_generation(sink, session, &row, &flow.flat_cache, Ranks::Local);
    }
}

/// Mutable state of one partitioned drive. Everything algorithmic lives
/// here; the evaluation session is passed into each method so the borrow
/// of the engine stays outside.
struct Flow<'a> {
    plan: Plan<'a>,
    annealed: bool,
    bounds: Bounds,
    // algorithm state
    rng: StdRng,
    pop: PartitionedPopulation,
    gen: usize,
    merged: usize,
    produced: usize,
    phase1_done: bool,
    gen_t: usize,
    /// Phase-II phases, resolved when phase I ends.
    phases: Vec<PhaseSpec>,
    /// Index of the active phase (`phases.len()` once all have ended).
    phase_index: usize,
    /// Generation at which the active phase started; its annealing
    /// temperature counts from here.
    phase_start: usize,
    /// Fronts of the phases that have ended ([`Phases::List`] only).
    phase_fronts: Vec<Vec<Individual>>,
    history: Vec<GenerationStats>,
    /// Genes of submitted-but-unmerged offspring, in submission order
    /// (parallel to the session's undrained indices).
    queue: VecDeque<Vec<f64>>,
    /// Current selection basis: the flattened population with the latest
    /// promotion revisions applied.
    selection: Vec<Individual>,
    /// The rank roulette's weights over `selection`, rebuilt with it.
    wheel: RouletteWheel,
    /// Flattened population at the last generation boundary.
    flat_cache: Vec<Individual>,
    variation: Variation,
    roulette: RankRoulette,
    frame: Frame,
    /// The active phase's promotion policy and cooling schedule, set
    /// only in annealed mode.
    annealing: Option<(PromotionPolicy, AnnealingSchedule)>,
    window_temperature: f64,
    window_promoted: usize,
    window_candidates: usize,
}

impl<'a> Flow<'a> {
    fn new(
        plan: Plan<'a>,
        bounds: Bounds,
        rng: StdRng,
        pop: PartitionedPopulation,
        history: Vec<GenerationStats>,
        flat_cache: Vec<Individual>,
        frame: Frame,
    ) -> Self {
        let base = plan.base;
        let variation = base
            .variation
            .unwrap_or_else(|| Variation::standard(bounds.len()));
        Flow {
            plan,
            annealed: base.mode == CompetitionMode::Annealed,
            bounds,
            rng,
            pop,
            gen: 0,
            merged: 0,
            produced: 0,
            phase1_done: false,
            gen_t: 0,
            phases: Vec::new(),
            phase_index: 0,
            phase_start: 0,
            phase_fronts: Vec::new(),
            history,
            queue: VecDeque::new(),
            selection: Vec::new(),
            wheel: RouletteWheel::default(),
            flat_cache,
            variation,
            roulette: RankRoulette::new(base.roulette_decay),
            frame,
            annealing: None,
            window_temperature: f64::INFINITY,
            window_promoted: 0,
            window_candidates: 0,
        }
    }

    /// `true` while the annealed promotion machinery is active.
    fn phase2(&self) -> bool {
        self.annealing.is_some()
    }

    /// `true` once phase I and every phase-II phase have ended.
    fn finished(&self) -> bool {
        self.phase1_done && self.phase_index >= self.phases.len()
    }

    /// The generation the run ends at: the configured budget until
    /// phase I ends, then `gen_t` plus every phase's span.
    fn last_generation(&self) -> usize {
        if self.phase1_done {
            self.gen_t + self.phases.iter().map(|p| p.span).sum::<usize>()
        } else {
            self.plan.base.generations
        }
    }

    fn capacity(&self) -> usize {
        let alive = (0..self.pop.partition_count())
            .filter(|&p| self.pop.is_alive(p))
            .count()
            .max(1);
        self.plan.base.population_size.div_ceil(alive)
    }

    /// Which partitions currently hold a constraint-satisfying member
    /// (dead partitions report `false`).
    fn partition_feasibility(&self) -> Vec<bool> {
        (0..self.pop.partition_count())
            .map(|p| self.pop.is_alive(p) && self.pop.partition(p).iter().any(|m| m.is_feasible()))
            .collect()
    }

    /// Records the end of phase I at `gen_t` and resolves the phase-II
    /// phases (a pure function of the plan and `gen_t`, so fresh and
    /// resumed runs derive the same list).
    fn end_phase1(&mut self, gen_t: usize) {
        self.phase1_done = true;
        self.gen_t = gen_t;
        self.phases = match self.plan.phases {
            Phases::Rest => vec![PhaseSpec::new(
                self.pop.partition_count(),
                self.plan.base.generations.saturating_sub(gen_t),
            )],
            Phases::List(list) => list.to_vec(),
        };
    }

    /// Solves the active phase's promotion policy and cooling schedule
    /// from its span (in local-only mode too, so a shaper that cannot be
    /// solved fails the run in either mode).
    fn arm_phase(&mut self) -> Result<(), OptimizeError> {
        let span = self.phases[self.phase_index].span;
        let base = self.plan.base;
        let solved = base.shaper.solve(base.n_superior, span)?;
        self.annealing = self.annealed.then_some(solved);
        Ok(())
    }

    /// Starts the active phase at the current generation: regrids the
    /// population to the phase's partition count (every phase after the
    /// first, or when the count differs), re-ranks it locally, announces
    /// the transition and arms the annealing machinery.
    fn start_phase(&mut self, sink: &mut dyn Sink) -> Result<(), OptimizeError> {
        let phase = self.phases[self.phase_index];
        if self.phase_index > 0 || self.pop.grid().partition_count() != phase.partitions {
            let grid = self.pop.grid().with_partitions(phase.partitions)?;
            let empty = PartitionedPopulation::distribute(grid, Vec::new());
            self.pop = std::mem::replace(&mut self.pop, empty).regrid(grid);
            self.pop.rank_locally();
        }
        if self.annealed && phase.span > 0 && sink.wants(EventKind::PhaseTransition) {
            sink.record(&RunEvent::PhaseTransition {
                generation: self.gen,
                phase_index: self.phase_index,
                partitions: phase.partitions,
                span: phase.span,
            });
        }
        self.phase_start = self.gen;
        self.arm_phase()
    }

    /// Generation-boundary processing. Ends phase I once every alive
    /// partition is feasible (or the cap or the budget is hit):
    /// infeasible partitions are discarded and `gen_t` recorded. Then
    /// ends every phase whose span is spent, recording its front, and
    /// starts the next one.
    fn advance(&mut self, sink: &mut dyn Sink) -> Result<(), OptimizeError> {
        if !self.phase1_done {
            let done = self.gen >= self.plan.base.generations
                || self.gen >= self.plan.base.phase1_max
                || (self.pop.all_partitions_feasible() && self.gen > 0);
            if !done {
                return Ok(());
            }
            if !self.pop.all_partitions_feasible() {
                self.pop.discard_infeasible_partitions();
            }
            self.end_phase1(self.gen);
            self.start_phase(sink)?;
        }
        while !self.finished() && self.gen >= self.phase_start + self.phases[self.phase_index].span
        {
            if matches!(self.plan.phases, Phases::List(_)) {
                let ranked = ranked_copy(&self.flat_cache);
                self.phase_fronts
                    .push(feasible_front(&ranked).cloned().collect());
            }
            self.phase_index += 1;
            if !self.finished() {
                self.start_phase(sink)?;
            }
        }
        Ok(())
    }

    /// Opens the next generation's window: fixes its annealing
    /// temperature, resets the promotion counters, and refreshes the
    /// selection basis.
    fn begin_window(&mut self) {
        self.window_temperature = match &self.annealing {
            // The generation being produced is `gen + 1`; its age in the
            // phase runs 1..=span, so the phase's last generation anneals
            // at exactly T_A = 1, per eqn (4).
            Some((_, schedule)) => {
                schedule.temperature((self.gen + 1).saturating_sub(self.phase_start))
            }
            None => f64::INFINITY,
        };
        self.window_promoted = 0;
        self.window_candidates = 0;
        self.refresh_selection();
    }

    /// Rebuilds the selection basis from the current population and, in
    /// phase II, runs the SA-gated promotion gamble on it: locally
    /// superior members, per partition, in random order; the `i`-th
    /// joins the global competition with `prob(i, T_A)`, and promoted
    /// members have their rank revised by a global non-dominated sort.
    /// The roulette wheel is rebuilt over the new basis.
    fn refresh_selection(&mut self) {
        self.frame.timer.start(Stage::Promotion);
        let mut flat = self.pop.flatten();
        if let Some((policy, _)) = self.annealing {
            let temperature = self.window_temperature;
            let grid = *self.pop.grid();
            let mut per_partition: Vec<Vec<usize>> = vec![Vec::new(); grid.partition_count()];
            for (idx, ind) in flat.iter().enumerate() {
                if ind.rank == 0 {
                    per_partition[grid.partition_of(ind.objectives())].push(idx);
                }
            }
            self.window_candidates += per_partition.iter().map(Vec::len).sum::<usize>();
            let mut promoted: Vec<usize> = Vec::new();
            for locally_superior in per_partition.iter_mut() {
                locally_superior.shuffle(&mut self.rng);
                for (pos, &idx) in locally_superior.iter().enumerate() {
                    let prob = policy.probability(pos + 1, temperature);
                    if self.rng.gen::<f64>() < prob {
                        promoted.push(idx);
                    }
                }
            }
            if !promoted.is_empty() {
                let mut arena: Vec<Individual> =
                    promoted.iter().map(|&i| flat[i].clone()).collect();
                rank_and_crowd(&mut arena);
                for (slot, &i) in promoted.iter().enumerate() {
                    flat[i].rank = arena[slot].rank;
                }
            }
            self.window_promoted += promoted.len();
        }
        self.wheel = self.roulette.wheel(&flat);
        self.frame.timer.stop();
        self.selection = flat;
    }

    /// Breeds offspring pairs from the current selection basis until
    /// the look-ahead window is full or the run's production budget is
    /// spent, then submits them in one burst, so parallel workers find a
    /// queue of candidates rather than waking for every pair. Submission
    /// order and the cache (which changes only at drains) are the same
    /// either way, so the burst changes no result.
    fn top_up<F>(&mut self, session: &mut EvaluationSession<'_, Evaluation, F>)
    where
        F: Fn(&[f64]) -> Evaluation + Sync,
    {
        let budget = self.last_generation() * self.plan.base.population_size;
        let bred = self.queue.len();
        self.frame.timer.start(Stage::Variation);
        while self.produced < budget && self.produced - self.merged + 2 <= self.plan.window {
            let (c1, c2) = if self.selection.is_empty() {
                // Degenerate: reseed randomly.
                (
                    random_vector(&mut self.rng, &self.bounds),
                    random_vector(&mut self.rng, &self.bounds),
                )
            } else {
                let pa = self.wheel.spin(&mut self.rng);
                let pb = self.wheel.spin(&mut self.rng);
                self.variation.offspring(
                    &mut self.rng,
                    &self.selection[pa].genes,
                    &self.selection[pb].genes,
                    &self.bounds,
                )
            };
            self.queue.push_back(c1);
            self.queue.push_back(c2);
            self.produced += 2;
        }
        for genes in self.queue.range(bred..) {
            session.submit(genes);
        }
        self.frame.timer.stop();
    }

    /// Drains the next merge quantum — in submission order, blocking
    /// only for the oldest outstanding completions — and folds it into
    /// the partitioned population: absorb, local elitist truncation,
    /// local re-ranking.
    fn merge<F>(
        &mut self,
        session: &mut EvaluationSession<'_, Evaluation, F>,
        target: usize,
    ) -> Result<(), OptimizeError>
    where
        F: Fn(&[f64]) -> Evaluation + Sync,
    {
        let want = self
            .plan
            .quantum
            .min(target - self.merged)
            .min(self.produced - self.merged);
        self.frame.timer.start(Stage::Evaluation);
        let values = session.drain(want)?;
        self.frame.timer.start(Stage::Selection);
        let offspring: Vec<Individual> = self
            .queue
            .drain(..want)
            .zip(values)
            .map(|(genes, ev)| Individual::new(genes, ev))
            .collect();
        let capacity = self.capacity();
        self.pop.absorb(offspring);
        self.pop.truncate_to(capacity, &mut self.rng);
        self.frame.timer.start(Stage::Ranking);
        self.pop.rank_locally();
        self.frame.timer.stop();
        self.merged += want;
        Ok(())
    }

    /// Appends and returns the history row for the generation just
    /// completed.
    fn record(&mut self) -> GenerationStats {
        let feasible = self.flat_cache.iter().filter(|m| m.is_feasible()).count();
        let phase = if self.phase2() { 2 } else { 1 };
        let row = GenerationStats {
            generation: self.gen,
            phase,
            temperature: self.window_temperature,
            promoted: self.window_promoted,
            feasible,
            population: self.flat_cache.len(),
        };
        self.history.push(row);
        row
    }

    /// Suspends at the current generation boundary. The look-ahead's
    /// completed evaluations are rescued into the pending list; the
    /// rescue drain's batch accounting is rolled back so a resumed run
    /// counts those merges exactly as an uninterrupted one would.
    fn suspend<F>(
        &mut self,
        session: &mut EvaluationSession<'_, Evaluation, F>,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<Suspension>, OptimizeError>
    where
        F: Fn(&[f64]) -> Evaluation + Sync,
    {
        self.frame.suspend(sink, self.gen);
        let mut values = Vec::new();
        let mut stats = session.stats().clone();
        if session.in_flight() > 0 {
            values = session.drain_all()?;
            let (batches, max_batch) = (stats.batches, stats.max_batch);
            stats = session.stats().clone();
            stats.batches = batches;
            stats.max_batch = max_batch;
        }
        let pending: Vec<SavedIndividual> = self
            .queue
            .iter()
            .zip(values)
            .map(|(genes, ev)| {
                SavedIndividual::from_individual(&Individual::new(genes.clone(), ev))
            })
            .collect();
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
        let state = EngineState {
            rng: self.rng.state(),
            gen: self.gen,
            phase1_done: self.phase1_done,
            gen_t: self.gen_t,
            grid_objective: grid.objective(),
            grid_lo,
            grid_hi,
            grid_partitions: grid.partition_count(),
            alive,
            partitions,
            history: self.history.clone(),
            stats,
        };
        Ok(RunStatus::Suspended(Box::new(Suspension {
            state,
            pending,
            phase_index: self.phase_index,
            phase_start: self.phase_start,
            phase_fronts: self
                .phase_fronts
                .iter()
                .map(|f| f.iter().map(SavedIndividual::from_individual).collect())
                .collect(),
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sacga::Sacga;
    use crate::telemetry::MemorySink;
    use engine::{EngineStats, EvaluatorKind, FaultPlan, FaultPolicy};
    use moea::problems::{NarrowingCorridor, Schaffer};

    fn config(generations: usize, partitions: usize) -> SteadyConfig {
        SteadyConfig::builder()
            .population_size(40)
            .generations(generations)
            .partitions(partitions)
            .build()
            .unwrap()
    }

    fn genes_of(pop: &[Individual]) -> Vec<Vec<f64>> {
        pop.iter().map(|m| m.genes.clone()).collect()
    }

    /// Strips wall-clock timing so stats can be compared across runs.
    fn scrub(mut stats: EngineStats) -> EngineStats {
        stats.eval_time = std::time::Duration::ZERO;
        stats.backoff_time = std::time::Duration::ZERO;
        stats
    }

    #[test]
    fn builder_validates_window_and_quantum() {
        assert!(SteadyConfig::builder().window(1).build().is_err());
        assert!(SteadyConfig::builder().quantum(0).build().is_err());
        assert!(SteadyConfig::builder().population_size(3).build().is_err());
        let cfg = SteadyConfig::builder().population_size(40).build().unwrap();
        assert_eq!(cfg.window(), 40, "window defaults to the population");
        assert_eq!(cfg.quantum(), 10, "quantum defaults to a quarter");
    }

    #[test]
    fn runs_deterministically_per_seed() {
        let cfg = config(20, 5);
        let a = SteadySacga::new(Schaffer::new(), cfg.clone())
            .run_seeded(5)
            .unwrap();
        let b = SteadySacga::new(Schaffer::new(), cfg)
            .run_seeded(5)
            .unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
        assert_eq!(genes_of(&a.population), genes_of(&b.population));
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn window_equal_population_reproduces_generational_sacga() {
        // With window == quantum == population_size the steady loop
        // degenerates to the generational schedule: same RNG draw order,
        // same merges, same accounting. The generational barrier is a
        // special case of the window.
        let steady_cfg = SteadyConfig::builder()
            .population_size(40)
            .generations(25)
            .partitions(5)
            .window(40)
            .quantum(40)
            .build()
            .unwrap();
        let gen_cfg = SacgaConfig::builder()
            .population_size(40)
            .generations(25)
            .partitions(5)
            .build()
            .unwrap();
        let steady = SteadySacga::new(Schaffer::new(), steady_cfg)
            .run_seeded(11)
            .unwrap();
        let generational = Sacga::new(Schaffer::new(), gen_cfg).run_seeded(11).unwrap();
        assert_eq!(steady.front_objectives(), generational.front_objectives());
        assert_eq!(
            genes_of(&steady.population),
            genes_of(&generational.population)
        );
        assert_eq!(steady.history, generational.history);
        assert_eq!(steady.gen_t, generational.gen_t);
        assert_eq!(scrub(steady.stats), scrub(generational.stats));
    }

    #[test]
    fn merge_order_is_bit_identical_across_worker_counts() {
        let make = |threads: usize| {
            let mut b = SteadyConfig::builder()
                .population_size(32)
                .generations(15)
                .partitions(4)
                .window(48)
                .quantum(8);
            if threads > 0 {
                b = b.engine_setup(
                    EngineSetup::new().evaluator(EvaluatorKind::ParallelWith(threads)),
                );
            }
            SteadySacga::new(Schaffer::new(), b.build().unwrap())
        };
        let serial = make(0).run_seeded(3).unwrap();
        for threads in [2, 4] {
            let parallel = make(threads).run_seeded(3).unwrap();
            assert_eq!(
                serial.front_objectives(),
                parallel.front_objectives(),
                "{threads} workers changed the front"
            );
            assert_eq!(
                genes_of(&serial.population),
                genes_of(&parallel.population),
                "{threads} workers changed the population"
            );
            assert_eq!(serial.history, parallel.history);
            assert_eq!(scrub(serial.stats.clone()), scrub(parallel.stats.clone()));
        }
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        // window > quantum keeps the look-ahead non-empty at most
        // boundaries, so suspension exercises the pending rescue.
        let cfg = SteadyConfig::builder()
            .population_size(24)
            .generations(20)
            .partitions(4)
            .window(36)
            .quantum(6)
            .build()
            .unwrap();
        let full = SteadySacga::new(Schaffer::new(), cfg.clone())
            .run_seeded(5)
            .unwrap();
        for stop in [0usize, 1, 2, 9, 19] {
            let ga = SteadySacga::new(Schaffer::new(), cfg.clone());
            let cp = match ga.run_until(5, stop).unwrap() {
                RunStatus::Suspended(cp) => cp,
                RunStatus::Complete(_) => panic!("run should suspend at gen {stop}"),
            };
            assert_eq!(cp.state.gen, stop);
            if stop > 0 {
                assert!(
                    !cp.pending.is_empty(),
                    "look-ahead should be in flight at gen {stop}"
                );
            }
            let resumed = ga.resume(&cp).unwrap();
            assert_eq!(resumed.front_objectives(), full.front_objectives());
            assert_eq!(genes_of(&resumed.population), genes_of(&full.population));
            assert_eq!(resumed.history, full.history);
            assert_eq!(resumed.gen_t, full.gen_t);
            assert_eq!(scrub(resumed.stats), scrub(full.stats.clone()));
        }
    }

    #[test]
    fn kill_and_resume_is_bit_identical_under_workers() {
        let cfg = SteadyConfig::builder()
            .population_size(24)
            .generations(14)
            .partitions(4)
            .window(32)
            .quantum(5)
            .engine_setup(EngineSetup::new().evaluator(EvaluatorKind::ParallelWith(4)))
            .build()
            .unwrap();
        let full = SteadySacga::new(Schaffer::new(), cfg.clone())
            .run_seeded(8)
            .unwrap();
        let ga = SteadySacga::new(Schaffer::new(), cfg);
        let cp = match ga.run_until(8, 6).unwrap() {
            RunStatus::Suspended(cp) => cp,
            RunStatus::Complete(_) => panic!("run should suspend"),
        };
        // Round-trip through the text form, as a kill/restart would.
        let restored = SteadyCheckpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(*cp, restored);
        let resumed = ga.resume(&restored).unwrap();
        assert_eq!(resumed.front_objectives(), full.front_objectives());
        assert_eq!(genes_of(&resumed.population), genes_of(&full.population));
        assert_eq!(scrub(resumed.stats), scrub(full.stats));
    }

    #[test]
    fn resume_until_chains_across_checkpoints() {
        let cfg = SteadyConfig::builder()
            .population_size(24)
            .generations(18)
            .partitions(4)
            .window(30)
            .quantum(7)
            .build()
            .unwrap();
        let full = SteadySacga::new(Schaffer::new(), cfg.clone())
            .run_seeded(3)
            .unwrap();
        let ga = SteadySacga::new(Schaffer::new(), cfg);
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
        assert!(hops >= 3, "expected several suspensions, got {hops}");
        assert_eq!(result.front_objectives(), full.front_objectives());
        assert_eq!(result.history, full.history);
    }

    #[test]
    fn accounting_identity_holds() {
        let cfg = config(15, 4);
        let r = SteadySacga::new(Schaffer::new(), cfg)
            .run_seeded(9)
            .unwrap();
        let s = &r.stats;
        assert_eq!(s.candidates, s.evaluations + s.cache_hits + s.screened);
        // init + one offspring batch per generation, no cache configured
        assert_eq!(s.evaluations, 40 + 15 * 40);
    }

    #[test]
    fn events_mirror_the_generational_stream() {
        let cfg = config(12, 4);
        let mut sink = MemorySink::new();
        let r = SteadySacga::new(Schaffer::new(), cfg)
            .run_with(1, &mut sink)
            .unwrap();
        let gens: Vec<usize> = sink
            .events()
            .iter()
            .filter(|e| e.kind() == EventKind::GenerationEnd)
            .map(|e| e.generation())
            .collect();
        assert_eq!(gens, (1..=12).collect::<Vec<_>>());
        let transitions = sink
            .events()
            .iter()
            .filter(|e| e.kind() == EventKind::PhaseTransition)
            .count();
        assert_eq!(transitions, 1);
        let promotions = sink
            .events()
            .iter()
            .filter(|e| e.kind() == EventKind::Promotion)
            .count();
        assert_eq!(promotions, r.generations - r.gen_t);
        // Sinks never consume RNG: the bare run is bit-identical.
        let bare = SteadySacga::new(Schaffer::new(), config(12, 4))
            .run_seeded(1)
            .unwrap();
        assert_eq!(bare.front_objectives(), r.front_objectives());
        assert_eq!(bare.history, r.history);
    }

    #[test]
    fn constrained_problem_transitions_and_converges() {
        let cfg = SteadyConfig::builder()
            .population_size(30)
            .generations(25)
            .partitions(8)
            .phase1_max(6)
            .slice_range(-1.0, 0.0)
            .window(40)
            .quantum(6)
            .build()
            .unwrap();
        let r = SteadySacga::new(NarrowingCorridor::new(0.05), cfg)
            .run_seeded(21)
            .unwrap();
        assert!(r.gen_t <= 6);
        assert_eq!(r.generations, 25);
        assert!(!r.front.is_empty());
        assert!(r.front.iter().all(|m| m.rank == 0 && m.is_feasible()));
    }

    #[test]
    fn fault_injected_run_matches_fault_free_front() {
        let base = SteadyConfig::builder()
            .population_size(24)
            .generations(12)
            .partitions(4)
            .window(30)
            .quantum(6);
        let clean_cfg = base.clone().build().unwrap();
        let faulty_cfg = base
            .engine_setup(
                EngineSetup::new()
                    .fault_policy(FaultPolicy::tolerant(3))
                    .inject_faults(FaultPlan::seeded(11).panics(0.05).nonfinite(0.05)),
            )
            .build()
            .unwrap();
        let clean = SteadySacga::new(Schaffer::new(), clean_cfg)
            .run_seeded(7)
            .unwrap();
        let faulty = SteadySacga::new(Schaffer::new(), faulty_cfg)
            .run_seeded(7)
            .unwrap();
        assert_eq!(clean.front_objectives(), faulty.front_objectives());
        assert!(faulty.stats.failures > 0);
        assert_eq!(faulty.stats.recovered, faulty.stats.failures);
    }

    #[test]
    fn local_only_mode_never_promotes() {
        let cfg = SteadyConfig::builder()
            .population_size(24)
            .generations(15)
            .partitions(4)
            .mode(CompetitionMode::LocalOnly)
            .window(32)
            .quantum(6)
            .build()
            .unwrap();
        let r = SteadySacga::new(Schaffer::new(), cfg)
            .run_seeded(8)
            .unwrap();
        assert!(r.history.iter().all(|h| h.promoted == 0 && h.phase == 1));
        assert!(!r.front.is_empty());
    }

    #[test]
    fn wrong_checkpoint_is_rejected() {
        let cfg = config(10, 4);
        let ga = SteadySacga::new(Schaffer::new(), cfg);
        let text = match ga.run_until(1, 3).unwrap() {
            RunStatus::Suspended(cp) => cp.to_text(),
            RunStatus::Complete(_) => panic!("run should suspend"),
        };
        // A SACGA parser must reject a steady checkpoint and vice versa.
        assert!(crate::checkpoint::SacgaCheckpoint::from_text(&text).is_err());
        assert_eq!(ga.algorithm(), "steady");
    }
}
