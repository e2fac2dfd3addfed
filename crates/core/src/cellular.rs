//! Cellular structured-population GA: the island model generalized to an
//! arbitrary neighborhood [`Topology`].
//!
//! "From Cells to Islands" observes that island models and cellular GAs
//! are the same algorithm at two points of one continuum: a population
//! structured by a neighborhood graph, with locality controlled by how
//! much of the graph each deme sees. [`CellularGa`] walks that continuum.
//! `N` cells (each a small subpopulation running its own elitist
//! constrained-dominance GA) sit on a pluggable [`Topology`] — ring, 2-D
//! torus, fully-connected, or small-world — with two mixing controls:
//!
//! * **Migration** (coarse-grained): every
//!   [`migration_interval`](CellularConfigBuilder::migration_interval)
//!   generations each cell sends [`migrants`](CellularConfigBuilder::migrants)
//!   clones of its local rank-0 front to its first neighbor, exactly as
//!   the island model's ring migration does.
//! * **Open mating** (fine-grained): with probability
//!   [`openness`](CellularConfigBuilder::openness) a cell picks its
//!   second parent from a neighboring cell instead of its own, choosing
//!   the forward or backward half of its neighborhood with probability
//!   [`anisotropy`](CellularConfigBuilder::anisotropy).
//!
//! **The island model.** A [`Topology::FullyConnected`] graph with
//! `openness == 0.0` *is* the island model, and
//! [`IslandGa`](crate::island::IslandGa) is this loop on that preset:
//! the fully-connected adjacency leads with the island ring-migration
//! target `(i+1) % k`, and an openness of exactly zero skips the
//! mate-mixing draw entirely, so the RNG stream is the island model's.
//! The island golden master pins it.
//!
//! **NSGA-II.** The same preset on a single cell is the panmictic end of
//! the continuum: one cell never migrates, both parents come from the
//! whole population, and the cell's environmental selection is NSGA-II's
//! µ+λ selection, so [`nsga2`](crate::nsga2) runs the paper's TPG
//! baseline as this loop on one cell. The NSGA-II golden masters pin
//! it. With one cell the cell's ranks are the global ranks, so the
//! per-generation front is read straight off the cell instead of
//! re-ranking a merged copy.
//!
//! **Determinism across workers.** Every cell submits its offspring
//! through one shared [`EvaluationSession`] and a single drain loop
//! collects completions *in submission order*, so — like
//! [`SteadySacga`](crate::steady::SteadySacga) — a seeded run is
//! bit-identical whether it evaluates serially or over any number of
//! workers. All RNG draws happen on the control thread; evaluation and
//! selection consume none.
//!
//! **Suspension.** Every submission is drained before a generation
//! boundary, so generation boundaries *are* merge boundaries and the
//! [`CellularCheckpoint`] needs no pending look-ahead: RNG state, cell
//! members, history, and engine counters round-trip through
//! `cellular-checkpoint v1` text and a killed-and-resumed run is
//! bit-identical to an uninterrupted one.

use crate::checkpoint::{CellularCheckpoint, SavedIndividual};
use crate::frame::{self, Frame, Ranks};
use crate::telemetry::{EventKind, Optimizer, RunEvent, Sink};
use crate::topology::Topology;
use engine::{EvaluationSession, Stage};
use moea::individual::Individual;
use moea::operators::Variation;
use moea::problem::Problem;
use moea::selection::binary_tournament;
use moea::setup::EngineSetup;
use moea::sorting::{environmental_selection, rank_and_crowd};
use moea::{Bounds, Evaluation, GenerationStats, OptimizeError, RunOutcome, RunStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a cellular run. Build with
/// [`CellularConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellularConfig {
    population_size: usize,
    generations: usize,
    topology: Topology,
    migration_interval: usize,
    migrants: usize,
    openness: f64,
    anisotropy: f64,
    variation: Option<Variation>,
    exec: EngineSetup,
}

impl CellularConfig {
    /// Starts a configuration builder.
    pub fn builder() -> CellularConfigBuilder {
        CellularConfigBuilder::default()
    }

    /// Total population across all cells.
    pub fn population_size(&self) -> usize {
        self.population_size
    }

    /// Generation budget.
    pub fn generations(&self) -> usize {
        self.generations
    }

    /// The neighborhood graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Members per cell.
    pub fn per_cell(&self) -> usize {
        self.population_size / self.topology.cells()
    }
}

/// Builder for [`CellularConfig`].
#[derive(Debug, Clone)]
pub struct CellularConfigBuilder {
    population_size: usize,
    generations: usize,
    topology: Topology,
    migration_interval: usize,
    migrants: usize,
    openness: f64,
    anisotropy: f64,
    variation: Option<Variation>,
    exec: EngineSetup,
}

impl Default for CellularConfigBuilder {
    fn default() -> Self {
        CellularConfigBuilder {
            population_size: 64,
            generations: 100,
            topology: Topology::Ring {
                cells: 8,
                radius: 1,
            },
            migration_interval: 10,
            migrants: 1,
            openness: 0.0,
            anisotropy: 0.5,
            variation: None,
            exec: EngineSetup::new(),
        }
    }
}

impl CellularConfigBuilder {
    /// Sets the total population (split evenly across cells).
    pub fn population_size(mut self, n: usize) -> Self {
        self.population_size = n;
        self
    }

    /// Sets the generation budget.
    pub fn generations(mut self, n: usize) -> Self {
        self.generations = n;
        self
    }

    /// Sets the neighborhood graph.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Places the population on `k` fully-connected islands: another
    /// spelling of `topology(Topology::FullyConnected { cells: k })`.
    pub fn islands(self, k: usize) -> Self {
        self.topology(Topology::FullyConnected { cells: k })
    }

    /// Sets how many generations pass between migrations (≥ 1).
    pub fn migration_interval(mut self, g: usize) -> Self {
        self.migration_interval = g;
        self
    }

    /// Sets how many individuals each cell emits per migration event.
    pub fn migrants(mut self, m: usize) -> Self {
        self.migrants = m;
        self
    }

    /// Sets the probability of drawing the second parent from a
    /// neighboring cell instead of the breeding cell itself (in
    /// `[0, 1]`; exactly `0.0` consumes no RNG, preserving the island
    /// degeneracy).
    pub fn openness(mut self, p: f64) -> Self {
        self.openness = p;
        self
    }

    /// Sets the probability that an open mating looks *forward* (toward
    /// higher cyclic cell indices) rather than backward (in `[0, 1]`;
    /// 0.5 is isotropic).
    pub fn anisotropy(mut self, p: f64) -> Self {
        self.anisotropy = p;
        self
    }

    /// Overrides the variation operators.
    pub fn variation(mut self, v: Variation) -> Self {
        self.variation = Some(v);
        self
    }

    /// Sets the engine knobs (evaluator, memo cache, fault handling,
    /// pooled cache, screen, metrics, per-cell series) as one
    /// [`EngineSetup`] bundle (default: [`EngineSetup::new`]).
    pub fn engine_setup(mut self, exec: EngineSetup) -> Self {
        self.exec = exec;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidConfig`] when the topology is
    /// structurally invalid, the per-cell population would drop below 4,
    /// the interval is zero, migrants reach the cell size, a mixing
    /// probability leaves `[0, 1]`, or mating is open on a single cell,
    /// which has no neighbor to mate with.
    pub fn build(self) -> Result<CellularConfig, OptimizeError> {
        self.topology.validate()?;
        if self.generations == 0 {
            return Err(OptimizeError::invalid_config(
                "generations",
                "must be at least 1",
            ));
        }
        let cells = self.topology.cells();
        let per_cell = self.population_size / cells;
        if per_cell < 4 {
            return Err(OptimizeError::invalid_config(
                "population_size",
                format!(
                    "per-cell population must be at least 4, got {per_cell} \
                     ({} over {cells} cells)",
                    self.population_size
                ),
            ));
        }
        if self.migration_interval == 0 {
            return Err(OptimizeError::invalid_config(
                "migration_interval",
                "must be at least 1",
            ));
        }
        if self.migrants >= per_cell {
            return Err(OptimizeError::invalid_config(
                "migrants",
                format!("must be fewer than the cell size {per_cell}"),
            ));
        }
        for (name, p) in [("openness", self.openness), ("anisotropy", self.anisotropy)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(OptimizeError::invalid_config(
                    name,
                    format!("must be a probability in [0, 1], got {p}"),
                ));
            }
        }
        if self.openness > 0.0 && cells == 1 {
            return Err(OptimizeError::invalid_config(
                "openness",
                "must be 0 on a single cell, which has no neighbor to mate with",
            ));
        }
        Ok(CellularConfig {
            population_size: self.population_size,
            generations: self.generations,
            topology: self.topology,
            migration_interval: self.migration_interval,
            migrants: self.migrants,
            openness: self.openness,
            anisotropy: self.anisotropy,
            variation: self.variation,
            exec: self.exec,
        })
    }
}

/// How a drive starts: fresh from a seed or from a suspended checkpoint.
enum CellularLaunch<'a> {
    Seed(u64),
    Checkpoint(&'a CellularCheckpoint),
}

/// The cellular structured-population GA.
///
/// # Examples
///
/// ```
/// use sacga::cellular::{CellularConfig, CellularGa};
/// use sacga::topology::Topology;
/// use moea::problems::Schaffer;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let config = CellularConfig::builder()
///     .population_size(40)
///     .generations(30)
///     .topology(Topology::Ring { cells: 4, radius: 1 })
///     .openness(0.25)
///     .build()?;
/// let result = CellularGa::new(Schaffer::new(), config).run_seeded(1)?;
/// assert!(!result.front.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CellularGa<P: Problem> {
    problem: P,
    config: CellularConfig,
}

impl<P: Problem> CellularGa<P> {
    /// Creates an optimizer for `problem` with `config`.
    pub fn new(problem: P, config: CellularConfig) -> Self {
        CellularGa { problem, config }
    }

    /// Runs with a seeded RNG and no instrumentation.
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

impl<P: Problem + Sync> CellularGa<P> {
    /// The shared run loop behind every public entry point. The whole
    /// drive executes inside one [`EvaluationSession`], so under a
    /// parallel evaluator the worker pool lives for the entire run.
    fn drive(
        &self,
        launch: CellularLaunch<'_>,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<CellularCheckpoint>, OptimizeError> {
        let problem = &self.problem;
        frame::check_problem(problem)?;
        if let CellularLaunch::Checkpoint(cp) = &launch {
            let k = self.config.topology.cells();
            let per_cell = self.config.per_cell();
            if cp.cells.len() != k {
                return Err(OptimizeError::invalid_checkpoint(format!(
                    "checkpoint stores {} cells but the topology has {k}",
                    cp.cells.len()
                )));
            }
            if let Some(cell) = cp.cells.iter().find(|c| c.len() != per_cell) {
                return Err(OptimizeError::invalid_checkpoint(format!(
                    "checkpoint cell holds {} members but the configuration expects {per_cell}",
                    cell.len()
                )));
            }
        }
        let mut exec = self.config.exec.build_engine(problem.cache_canonicalizer());
        if let CellularLaunch::Checkpoint(cp) = &launch {
            exec.restore_stats(cp.stats.clone());
        }
        let bounds = problem.bounds().clone();
        let eval = |genes: &[f64]| problem.evaluate(genes);
        exec.with_session(&eval, |session| {
            self.run_loop(launch, stop_after, sink, session, bounds)
        })
    }

    /// The cellular loop proper, generic over the session's evaluation
    /// closure.
    #[allow(clippy::too_many_lines)]
    fn run_loop<F>(
        &self,
        launch: CellularLaunch<'_>,
        stop_after: usize,
        sink: &mut dyn Sink,
        session: &mut EvaluationSession<'_, Evaluation, F>,
        bounds: Bounds,
    ) -> Result<RunStatus<CellularCheckpoint>, OptimizeError>
    where
        F: Fn(&[f64]) -> Evaluation + Sync,
    {
        let cfg = &self.config;
        let topo = &cfg.topology;
        let k = topo.cells();
        let per_cell = cfg.per_cell();
        let variation = cfg
            .variation
            .unwrap_or_else(|| Variation::standard(bounds.len()));
        let adjacency: Vec<Vec<usize>> = (0..k).map(|i| topo.neighbors(i)).collect();
        let oriented: Vec<(Vec<usize>, Vec<usize>)> = (0..k).map(|i| topo.orientation(i)).collect();

        let (mut rng, mut cells, mut history, mut gen, mut migrations);
        match launch {
            CellularLaunch::Seed(seed) => {
                rng = StdRng::seed_from_u64(seed);
                // Draw every cell's genes first (sole RNG consumer), then
                // evaluate the whole lattice through the shared session.
                let mut members =
                    frame::initial_population(&self.problem, session, &mut rng, k * per_cell)?
                        .into_iter();
                cells = (0..k)
                    .map(|_| members.by_ref().take(per_cell).collect())
                    .collect::<Vec<Vec<Individual>>>();
                for cell in &mut cells {
                    rank_and_crowd(cell);
                }
                history = vec![generation_row(0, 0, &cells)];
                gen = 0;
                migrations = 0;
            }
            CellularLaunch::Checkpoint(cp) => {
                rng = StdRng::from_state(cp.rng);
                cells = cp
                    .cells
                    .iter()
                    .map(|cell| frame::restore(&self.problem, cell))
                    .collect::<Result<_, _>>()?;
                history = cp.history.clone();
                gen = cp.gen;
                migrations = cp.migrations;
            }
        }
        let mut frame = Frame::open(sink, session, gen);
        // One cell's ranks are already the global ranks: environmental
        // selection keeps whole fronts in order, so no survivor's rank
        // changes.
        let ranks = if k == 1 { Ranks::Global } else { Ranks::Local };
        let want_promotion = sink.wants(EventKind::Promotion);

        loop {
            if gen >= cfg.generations {
                return Ok(RunStatus::Complete(Box::new(RunOutcome {
                    migrations,
                    ..frame::finish(
                        cells.into_iter().flatten().collect(),
                        gen,
                        history,
                        session.stats(),
                    )
                })));
            }
            if gen >= stop_after {
                frame.suspend(sink, gen);
                return Ok(RunStatus::Suspended(Box::new(CellularCheckpoint {
                    rng: rng.state(),
                    gen,
                    migrations,
                    cells: cells
                        .iter()
                        .map(|cell| cell.iter().map(SavedIndividual::from_individual).collect())
                        .collect(),
                    history: history.clone(),
                    stats: session.stats().clone(),
                })));
            }
            gen += 1;

            // --- breed every cell in topology order, submitting children
            // through the shared session as they are produced
            let mut queues: Vec<Vec<Vec<f64>>> = Vec::with_capacity(k);
            for i in 0..k {
                frame.timer.start(Stage::Variation);
                let cell = &cells[i];
                let mut child_genes: Vec<Vec<f64>> = Vec::with_capacity(per_cell);
                while child_genes.len() < per_cell {
                    let pa = binary_tournament(&mut rng, cell);
                    // An openness of exactly zero must not consume RNG:
                    // that is the island degeneracy.
                    let mate_pool: &[Individual] =
                        if cfg.openness > 0.0 && rng.gen::<f64>() < cfg.openness {
                            &cells[pick_neighbor(&mut rng, &oriented[i], cfg.anisotropy)]
                        } else {
                            cell
                        };
                    let pb = binary_tournament(&mut rng, mate_pool);
                    let (c1, c2) = variation.offspring(
                        &mut rng,
                        &cell[pa].genes,
                        &mate_pool[pb].genes,
                        &bounds,
                    );
                    child_genes.push(c1);
                    if child_genes.len() < per_cell {
                        child_genes.push(c2);
                    }
                }
                for genes in &child_genes {
                    session.submit(genes);
                }
                queues.push(child_genes);
            }

            // --- single merge loop: drain completions in submission
            // order (worker interleaving invisible), then per-cell
            // survivor selection
            for (i, child_genes) in queues.into_iter().enumerate() {
                frame.timer.start(Stage::Evaluation);
                let evals = session.drain(per_cell)?;
                frame.timer.start(Stage::Selection);
                let offspring: Vec<Individual> = child_genes
                    .into_iter()
                    .zip(evals)
                    .map(|(genes, ev)| Individual::new(genes, ev))
                    .collect();
                let mut combined = std::mem::take(&mut cells[i]);
                combined.extend(offspring);
                cells[i] = environmental_selection(combined, per_cell);
                frame.timer.stop();
            }

            // --- neighborhood migration
            frame.timer.start(Stage::Promotion);
            let mut migrated = 0usize;
            if gen % cfg.migration_interval == 0 && k > 1 {
                migrations += 1;
                let (m, candidates) =
                    migrate(&mut cells, &adjacency, cfg.migrants, per_cell, &mut rng);
                migrated = m;
                if want_promotion {
                    sink.record(&RunEvent::Promotion {
                        generation: gen,
                        promoted: migrated,
                        candidates,
                    });
                }
            }
            frame.timer.stop();

            // --- generation boundary: history row and events
            let row = generation_row(gen, migrated, &cells);
            history.push(row);
            frame.end_generation(sink, session, &row, cells.iter().flatten(), ranks);
        }
    }
}

/// One migration event over a structured population: each cell clones
/// `migrants` members of its local rank-0 front (falling back to uniform
/// picks when the front is empty), then every pick list is delivered to
/// its cell's *first* neighbor and absorbed by environmental selection
/// back down to `capacity` members.
///
/// Total individual count is conserved: every cell stays exactly
/// `capacity` strong (selection truncates the `capacity + migrants`
/// combined pool). Returns `(migrated, candidates)`: the number of
/// clones delivered (`cells.len() * migrants`) and the total size of the
/// pick pools. Exposed so the topology property tests can pin the
/// conservation claim directly.
pub fn migrate(
    cells: &mut [Vec<Individual>],
    adjacency: &[Vec<usize>],
    migrants: usize,
    capacity: usize,
    rng: &mut StdRng,
) -> (usize, usize) {
    let k = cells.len();
    let mut candidates = 0usize;
    let mut outgoing: Vec<Vec<Individual>> = Vec::with_capacity(k);
    for cell in cells.iter() {
        let rank0: Vec<&Individual> = cell.iter().filter(|m| m.rank == 0).collect();
        candidates += if rank0.is_empty() {
            cell.len()
        } else {
            rank0.len()
        };
        let mut picks = Vec::with_capacity(migrants);
        for _ in 0..migrants {
            let src = if rank0.is_empty() {
                &cell[rng.gen_range(0..cell.len())]
            } else {
                rank0[rng.gen_range(0..rank0.len())]
            };
            picks.push(src.clone());
        }
        outgoing.push(picks);
    }
    for (i, picks) in outgoing.into_iter().enumerate() {
        let dst = adjacency[i][0];
        let cell = &mut cells[dst];
        let mut combined = std::mem::take(cell);
        combined.extend(picks);
        *cell = environmental_selection(combined, capacity);
    }
    (k * migrants, candidates)
}

/// History row of a generation boundary: the cellular loop is all
/// global-phase, so the phase is 2 at temperature 1.
fn generation_row(
    generation: usize,
    promoted: usize,
    cells: &[Vec<Individual>],
) -> GenerationStats {
    GenerationStats {
        generation,
        phase: 2,
        temperature: 1.0,
        promoted,
        feasible: cells.iter().flatten().filter(|m| m.is_feasible()).count(),
        population: cells.iter().map(Vec::len).sum(),
    }
}

/// Picks the neighbor cell an open mating draws its second parent from:
/// a forward/backward coin weighted by `anisotropy`, then a uniform pick
/// within the chosen half (falling back to the non-empty half when the
/// topology leaves one side empty).
fn pick_neighbor(rng: &mut StdRng, oriented: &(Vec<usize>, Vec<usize>), anisotropy: f64) -> usize {
    let (fwd, bwd) = oriented;
    let pool: &[usize] = if fwd.is_empty() {
        bwd
    } else if bwd.is_empty() || rng.gen::<f64>() < anisotropy {
        fwd
    } else {
        bwd
    };
    pool[rng.gen_range(0..pool.len())]
}

impl<P: Problem + Sync> Optimizer for CellularGa<P> {
    type Checkpoint = CellularCheckpoint;

    fn algorithm(&self) -> &'static str {
        "cellular"
    }

    fn run_until_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<CellularCheckpoint>, OptimizeError> {
        self.drive(CellularLaunch::Seed(seed), stop_after, sink)
    }

    fn resume_until_with(
        &self,
        checkpoint: &CellularCheckpoint,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<CellularCheckpoint>, OptimizeError> {
        self.drive(CellularLaunch::Checkpoint(checkpoint), stop_after, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::island::IslandConfig;
    use crate::telemetry::MemorySink;
    use moea::problems::{Schaffer, Zdt1};

    fn quick(topology: Topology, interval: usize) -> CellularConfig {
        CellularConfig::builder()
            .population_size(40)
            .generations(30)
            .topology(topology)
            .migration_interval(interval)
            .migrants(2)
            .build()
            .unwrap()
    }

    fn ring4() -> Topology {
        Topology::Ring {
            cells: 4,
            radius: 1,
        }
    }

    #[test]
    fn builder_validates() {
        assert!(CellularConfig::builder()
            .topology(Topology::Ring {
                cells: 4,
                radius: 2
            })
            .build()
            .is_err());
        assert!(CellularConfig::builder()
            .population_size(12)
            .topology(ring4())
            .build()
            .is_err());
        assert!(CellularConfig::builder()
            .migration_interval(0)
            .build()
            .is_err());
        assert!(CellularConfig::builder()
            .population_size(16)
            .topology(ring4())
            .migrants(4)
            .build()
            .is_err());
        assert!(CellularConfig::builder().openness(1.5).build().is_err());
        assert!(CellularConfig::builder().anisotropy(-0.1).build().is_err());
        assert!(CellularConfig::builder().build().is_ok());
    }

    #[test]
    fn run_is_deterministic() {
        let a = CellularGa::new(Schaffer::new(), quick(ring4(), 10))
            .run_seeded(3)
            .unwrap();
        let b = CellularGa::new(Schaffer::new(), quick(ring4(), 10))
            .run_seeded(3)
            .unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
        assert_eq!(a.stats.evaluations, b.stats.evaluations);
    }

    #[test]
    fn evaluation_budget_and_migration_schedule_match_island() {
        let r = CellularGa::new(Schaffer::new(), quick(ring4(), 10))
            .run_seeded(2)
            .unwrap();
        assert_eq!(r.stats.evaluations, 40 + 30 * 40);
        assert_eq!(r.migrations, 3); // generations 10, 20, 30
    }

    #[test]
    fn fully_connected_zero_openness_is_the_island_model() {
        let spelled = |cells: usize, pop: usize, gens: usize| {
            CellularConfig::builder()
                .population_size(pop)
                .generations(gens)
                .topology(Topology::FullyConnected { cells })
                .migration_interval(20)
                .migrants(2)
                .openness(0.0)
                .build()
                .unwrap()
        };
        assert_eq!(
            IslandConfig::builder().build().unwrap(),
            spelled(5, 100, 250)
        );
        let preset = IslandConfig::builder()
            .population_size(40)
            .generations(30)
            .islands(4)
            .build()
            .unwrap();
        assert_eq!(preset, spelled(4, 40, 30));
    }

    #[test]
    fn open_mating_changes_the_stream_but_stays_deterministic() {
        let mut open = quick(ring4(), 10);
        open = CellularConfig::builder()
            .population_size(open.population_size)
            .generations(open.generations)
            .topology(ring4())
            .migration_interval(10)
            .migrants(2)
            .openness(0.5)
            .anisotropy(0.25)
            .build()
            .unwrap();
        let a = CellularGa::new(Schaffer::new(), open.clone())
            .run_seeded(5)
            .unwrap();
        let b = CellularGa::new(Schaffer::new(), open)
            .run_seeded(5)
            .unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
        let closed = CellularGa::new(Schaffer::new(), quick(ring4(), 10))
            .run_seeded(5)
            .unwrap();
        assert_ne!(a.front_objectives(), closed.front_objectives());
    }

    #[test]
    fn kill_and_resume_is_lossless() {
        let ga = CellularGa::new(Schaffer::new(), quick(ring4(), 10));
        let whole = ga.run_seeded(7).unwrap();
        let status = ga.run_until(7, 13).unwrap();
        let RunStatus::Suspended(cp) = status else {
            panic!("expected suspension at generation 13");
        };
        assert_eq!(cp.gen, 13);
        // text round-trip, as the daemon would do it
        let cp = CellularCheckpoint::from_text(&cp.to_text()).unwrap();
        let resumed = ga.resume(&cp).unwrap();
        assert_eq!(whole.front_objectives(), resumed.front_objectives());
        assert_eq!(whole.history, resumed.history);
        assert_eq!(whole.stats.evaluations, resumed.stats.evaluations);
    }

    #[test]
    fn stop_after_zero_suspends_before_breeding() {
        let ga = CellularGa::new(Schaffer::new(), quick(ring4(), 10));
        let RunStatus::Suspended(cp) = ga.run_until(3, 0).unwrap() else {
            panic!("expected immediate suspension");
        };
        assert_eq!(cp.gen, 0);
        assert_eq!(cp.history.len(), 1);
        assert_eq!(cp.history[0].generation, 0);
        let resumed = ga.resume(&cp).unwrap();
        assert_eq!(
            resumed.front_objectives(),
            ga.run_seeded(3).unwrap().front_objectives()
        );
    }

    #[test]
    fn checkpoints_without_a_generation_zero_row_still_resume() {
        // Checkpoints written before the loop recorded generation 0 hold
        // the rows of generations 1..=gen only: they still parse and
        // resume onto the uninterrupted front.
        let ga = CellularGa::new(Schaffer::new(), quick(ring4(), 10));
        let RunStatus::Suspended(cp) = ga.run_until(7, 13).unwrap() else {
            panic!("expected suspension at generation 13");
        };
        let mut old = (*cp).clone();
        old.history.remove(0);
        let parsed = CellularCheckpoint::from_text(&old.to_text()).unwrap();
        assert_eq!(parsed, old);
        let resumed = ga.resume(&parsed).unwrap();
        let whole = ga.run_seeded(7).unwrap();
        assert_eq!(resumed.front_objectives(), whole.front_objectives());
        assert_eq!(resumed.history[..], whole.history[1..]);
    }

    #[test]
    fn stop_past_the_budget_completes() {
        let ga = CellularGa::new(Schaffer::new(), quick(ring4(), 10));
        let status = ga.run_until(3, 99).unwrap();
        assert!(matches!(status, RunStatus::Complete(_)));
    }

    #[test]
    fn checkpoint_from_wrong_shape_is_rejected() {
        let ga = CellularGa::new(Schaffer::new(), quick(ring4(), 10));
        let RunStatus::Suspended(cp) = ga.run_until(1, 5).unwrap() else {
            panic!("expected suspension");
        };
        let eight_cells = CellularGa::new(
            Schaffer::new(),
            CellularConfig::builder()
                .population_size(40)
                .generations(30)
                .topology(Topology::Ring {
                    cells: 8,
                    radius: 1,
                })
                .build()
                .unwrap(),
        );
        assert!(eight_cells.resume(&cp).is_err());
    }

    #[test]
    fn events_match_run_structure() {
        let mut sink = MemorySink::new();
        let ga = CellularGa::new(Schaffer::new(), quick(ring4(), 10));
        assert_eq!(ga.algorithm(), "cellular");
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
        let promotions = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::Promotion { .. }))
            .count();
        assert_eq!(promotions, watched.migrations);
    }

    #[test]
    fn works_on_zdt_and_every_topology() {
        for topo in [
            Topology::Ring {
                cells: 4,
                radius: 1,
            },
            Topology::Torus {
                rows: 2,
                cols: 2,
                radius: 1,
            },
            Topology::FullyConnected { cells: 4 },
            Topology::SmallWorld {
                cells: 4,
                radius: 1,
                chords: 1,
                seed: 3,
            },
        ] {
            let cfg = CellularConfig::builder()
                .population_size(32)
                .generations(15)
                .topology(topo)
                .openness(0.3)
                .build()
                .unwrap();
            let r = CellularGa::new(Zdt1::new(6), cfg).run_seeded(5).unwrap();
            assert!(!r.front.is_empty());
            assert_eq!(r.population.len(), 32);
        }
    }
}
