//! The three optimizer workloads. Each operation is one *round*: every
//! arm of the workload run once, to completion, on one seed.
//!
//! * `fig05` — the paper's Fig. 5 pair (TPG = 1-partition SACGA, and
//!   8-partition SACGA) on the drivable-load integrator, configured as
//!   the `fig05_sacga_vs_tpg` harness configures them.
//! * `integrator` — 8-partition SACGA on the integrator with `C_L` as a
//!   gene: the same circuit stack without the drivable-load search.
//! * `engine` — seven arms on 30-variable ZDT1, whose evaluation costs
//!   nanoseconds, so the time is the loops, the engine and the pool.

use std::hint::black_box;
use std::time::{Duration, Instant};

use analog_circuits::{DrivableLoadProblem, IntegratorProblem, Spec};
use dse_bench::{FIG_CACHE_CAPACITY, PHASE1_MAX, POP};
use engine::{EngineMetrics, EvaluatorKind, MetricsRegistry};
use moea::hypervolume::hypervolume;
use moea::nsga2::{Nsga2, Nsga2Config};
use moea::problems::Zdt1;
use moea::{EngineSetup, Problem, RunOutcome};
use sacga::local::LocalCompetitionGaBuilder;
use sacga::telemetry::{DynOptimizer, NullSink, Sink};
use sacga::{
    CellularConfig, CellularGa, IslandConfig, IslandGa, Sacga, SacgaConfig, SteadyConfig,
    SteadySacga, Topology,
};

use crate::checks::{front_digest, outcome_problems};
use crate::trace::{Recorded, Reservoir, SpanId, SpanLog, StageSink};

/// Generations per arm of a `fig05` round. The figure itself runs 800;
/// at ~0.5 ms per evaluation that is ~40 s per arm on a 2-core host, so
/// a round keeps the configuration and shortens the budget until
/// several rounds fit in one run. Below ~60 generations fewer than 80%
/// of the evaluated designs are drivable, and the round would stop
/// representing the figure's mix.
pub const FIG05_GENS: usize = 60;
/// Generations of an `integrator` round.
pub const INTEGRATOR_GENS: usize = 40;
/// Generations per arm of an `engine` round.
pub const ENGINE_GENS: usize = 60;
/// Population of every `engine` arm.
pub const ENGINE_POP: usize = 200;
/// Decision variables of the `engine` workload's ZDT1.
pub const ZDT_VARS: usize = 30;
/// Worker threads of the one parallel `engine` arm.
pub const PARALLEL_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaKind {
    Fig05,
    Integrator,
    Engine,
}

impl GaKind {
    /// Generations per arm of one round.
    pub fn gens(self) -> usize {
        match self {
            GaKind::Fig05 => FIG05_GENS,
            GaKind::Integrator => INTEGRATOR_GENS,
            GaKind::Engine => ENGINE_GENS,
        }
    }

    pub fn arms(self) -> &'static [&'static str] {
        match self {
            GaKind::Fig05 => &["tpg", "sacga8"],
            GaKind::Integrator => &["sacga8"],
            GaKind::Engine => &[
                "sacga8", "steady", "nsga2", "island", "cellular", "local", "sacga8x2",
            ],
        }
    }
}

/// Any problem an arm can optimize.
pub type DynProblem = dyn Problem + Sync;

/// Builds the workload's problem and every arm's optimizer, and
/// evaluates the middle of the design box once, so configuration checks
/// and lazily initialised state are paid in set-up.
pub fn setup(kind: GaKind) -> Result<Box<DynProblem>, String> {
    let problem: Box<DynProblem> = match kind {
        GaKind::Fig05 => Box::new(dse_bench::paper_problem()),
        GaKind::Integrator => Box::new(IntegratorProblem::new(Spec::featured())),
        GaKind::Engine => Box::new(Zdt1::new(ZDT_VARS)),
    };
    for arm in kind.arms() {
        black_box(arm_optimizer(
            kind,
            arm,
            kind.gens(),
            &*problem,
            base_setup(),
        )?);
    }
    let mid = problem
        .bounds()
        .denormalize(&vec![0.5; problem.num_variables()]);
    black_box(problem.evaluate(black_box(&mid)));
    Ok(problem)
}

/// One arm's run inside a round.
#[derive(Debug)]
pub struct ArmRun {
    pub arm: &'static str,
    pub wall: Duration,
    pub digest: u64,
    pub front_size: usize,
    pub problems: Vec<String>,
}

/// One round: every arm once.
#[derive(Debug)]
pub struct Round {
    pub wall: Duration,
    pub arms: Vec<ArmRun>,
}

impl Round {
    pub fn digest(&self) -> u64 {
        self.arms.iter().fold(0, |h, a| h.rotate_left(5) ^ a.digest)
    }

    pub fn problems(&self) -> Vec<String> {
        self.arms
            .iter()
            .flat_map(|a| a.problems.iter().map(move |p| format!("{}: {p}", a.arm)))
            .collect()
    }
}

/// What a traced round leaves behind for the per-layer metrics.
#[derive(Debug, Default)]
pub struct RoundTrace {
    pub samples: Reservoir,
    pub sink: StageSink,
    /// Wall time per arm name, summed over traced rounds.
    pub arm_wall: Vec<(&'static str, Duration)>,
}

fn arm_optimizer<'a, P: Problem + Sync + ?Sized>(
    kind: GaKind,
    arm: &str,
    gens: usize,
    problem: &'a P,
    setup: EngineSetup,
) -> Result<Box<dyn DynOptimizer + 'a>, String> {
    let err = |e: moea::OptimizeError| format!("{arm}: {e}");
    let parallel = |s: EngineSetup| s.evaluator(EvaluatorKind::ParallelWith(PARALLEL_WORKERS));
    Ok(match (kind, arm) {
        (GaKind::Fig05 | GaKind::Integrator, _) => {
            let (lo, hi) = DrivableLoadProblem::slice_range();
            // `dse_bench::sacga_ga` spelled out for any `Problem`, so
            // the traced run can wrap the problem; the known-answer check
            // ties the two together.
            let cfg = SacgaConfig::builder()
                .population_size(POP)
                .generations(gens)
                .partitions(if arm == "tpg" { 1 } else { 8 })
                .phase1_max(PHASE1_MAX.min(gens / 2))
                .slice_range(lo, hi)
                .engine_setup(setup)
                .build()
                .map_err(err)?;
            Box::new(Sacga::new(problem, cfg))
        }
        (GaKind::Engine, "sacga8" | "sacga8x2") => {
            let setup = if arm == "sacga8x2" {
                parallel(setup)
            } else {
                setup
            };
            let cfg = SacgaConfig::builder()
                .population_size(ENGINE_POP)
                .generations(gens)
                .partitions(8)
                .engine_setup(setup)
                .build()
                .map_err(err)?;
            Box::new(Sacga::new(problem, cfg))
        }
        (GaKind::Engine, "steady") => {
            let cfg = SteadyConfig::builder()
                .population_size(ENGINE_POP)
                .generations(gens)
                .partitions(8)
                .window(ENGINE_POP)
                .quantum(ENGINE_POP / 4)
                .engine_setup(setup)
                .build()
                .map_err(err)?;
            Box::new(SteadySacga::new(problem, cfg))
        }
        (GaKind::Engine, "nsga2") => {
            let cfg = Nsga2Config::builder()
                .population_size(ENGINE_POP)
                .generations(gens)
                .engine_setup(setup)
                .build()
                .map_err(err)?;
            Box::new(Nsga2::new(problem, cfg))
        }
        (GaKind::Engine, "island") => {
            let cfg = IslandConfig::builder()
                .population_size(ENGINE_POP)
                .generations(gens)
                .islands(4)
                .engine_setup(setup)
                .build()
                .map_err(err)?;
            Box::new(IslandGa::new(problem, cfg))
        }
        (GaKind::Engine, "cellular") => {
            let cfg = CellularConfig::builder()
                .population_size(ENGINE_POP)
                .generations(gens)
                .topology(Topology::Ring {
                    cells: 8,
                    radius: 1,
                })
                .engine_setup(setup)
                .build()
                .map_err(err)?;
            Box::new(CellularGa::new(problem, cfg))
        }
        (GaKind::Engine, "local") => Box::new(
            LocalCompetitionGaBuilder::new()
                .population_size(ENGINE_POP)
                .generations(gens)
                .partitions(8)
                .engine_setup(setup)
                .build(problem)
                .map_err(err)?,
        ),
        (GaKind::Engine, other) => return Err(format!("unknown engine arm {other:?}")),
    })
}

/// The front-quality measure each workload checks for finiteness.
fn hypervolume_of(kind: GaKind, outcome: &RunOutcome) -> f64 {
    match kind {
        GaKind::Fig05 | GaKind::Integrator => {
            DrivableLoadProblem::paper_hypervolume(&outcome.front)
        }
        GaKind::Engine => hypervolume(&outcome.front_objectives(), &[11.0, 11.0]),
    }
}

/// Runs one arm on `seed`; `sink` receives the optimizer's events.
pub fn run_arm<P: Problem + Sync + ?Sized>(
    kind: GaKind,
    arm: &'static str,
    gens: usize,
    problem: &P,
    setup: EngineSetup,
    seed: u64,
    sink: &mut dyn Sink,
) -> ArmRun {
    let start = Instant::now();
    let result = arm_optimizer(kind, arm, gens, problem, setup).and_then(|opt| {
        opt.run_dyn_with(seed, sink)
            .map_err(|e| format!("{arm} run: {e}"))
    });
    let wall = start.elapsed();
    match result {
        Ok(outcome) => ArmRun {
            arm,
            wall,
            digest: front_digest([outcome.front_objectives().as_slice()]),
            front_size: outcome.front.len(),
            problems: outcome_problems(&outcome, Some(hypervolume_of(kind, &outcome))),
        },
        Err(e) => ArmRun {
            arm,
            wall,
            digest: 0,
            front_size: 0,
            problems: vec![e],
        },
    }
}

/// The engine settings every arm shares: the figure harness's cache.
pub fn base_setup() -> EngineSetup {
    EngineSetup::new().cache_capacity(FIG_CACHE_CAPACITY)
}

/// One untraced round of `kind` on `seed`. `after_arm` gets each arm's
/// wall time as the arm ends; the time it takes is not the round's.
pub fn round(
    kind: GaKind,
    problem: &DynProblem,
    seed: u64,
    mut after_arm: impl FnMut(Duration),
) -> Round {
    let mut wall = Duration::ZERO;
    let arms = kind
        .arms()
        .iter()
        .map(|&arm| {
            let run = run_arm(
                kind,
                arm,
                kind.gens(),
                problem,
                base_setup(),
                seed,
                &mut NullSink,
            );
            wall += run.wall;
            after_arm(run.wall);
            run
        })
        .collect();
    Round { wall, arms }
}

/// One traced round: the same work as [`round`], through a
/// [`Recorded`] problem, with engine metrics registered in `registry`
/// and one span per arm under `parent`.
pub fn traced_round(
    kind: GaKind,
    problem: &DynProblem,
    seed: u64,
    log: &SpanLog,
    parent: SpanId,
    registry: &MetricsRegistry,
    trace: &mut RoundTrace,
) -> Round {
    let start = Instant::now();
    let mut arms = Vec::new();
    for &arm in kind.arms() {
        let span = log.begin(arm, parent);
        let recorded = Recorded::new(problem, log, span);
        let setup = base_setup().metrics(EngineMetrics::register(registry, &[("arm", arm)]));
        let run = run_arm(
            kind,
            arm,
            kind.gens(),
            &recorded,
            setup,
            seed,
            &mut trace.sink,
        );
        log.end(span);
        for sample in recorded.into_samples() {
            trace.samples.offer(|| sample);
        }
        match trace.arm_wall.iter_mut().find(|(name, _)| *name == arm) {
            Some((_, wall)) => *wall += run.wall,
            None => trace.arm_wall.push((arm, run.wall)),
        }
        arms.push(run);
    }
    Round {
        wall: start.elapsed(),
        arms,
    }
}
