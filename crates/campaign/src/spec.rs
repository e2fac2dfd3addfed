//! The campaign specification: which algorithms run on which seeds.

use engine::SharedCache;
use moea::Evaluation;
use sacga::telemetry::DynOptimizer;

/// Factory signature of an [`Arm`]: builds a fresh optimizer for one
/// cell, wiring in the campaign's shared evaluation cache when the
/// runner provides one. Called concurrently from worker threads, hence
/// `Sync`.
pub type ArmFactory<'p> =
    Box<dyn Fn(Option<&SharedCache<Evaluation>>) -> Box<dyn DynOptimizer + 'p> + Sync + 'p>;

/// One algorithm × configuration under comparison: a stable label (used
/// in file names, reports and statistics) plus a factory that
/// instantiates the configured optimizer for each cell.
///
/// The factory is invoked once per cell, inside whichever worker thread
/// claims the cell. It receives the campaign-wide [`SharedCache`] when
/// the runner is configured with one, and must thread it into the
/// optimizer's configuration (every config builder in the workspace
/// takes `.engine_setup(EngineSetup::new().shared_cache(..))`) — or
/// ignore it to keep that arm's caching private.
pub struct Arm<'p> {
    label: String,
    factory: ArmFactory<'p>,
}

impl<'p> Arm<'p> {
    /// An arm named `label` built by `factory`.
    pub fn new(
        label: impl Into<String>,
        factory: impl Fn(Option<&SharedCache<Evaluation>>) -> Box<dyn DynOptimizer + 'p> + Sync + 'p,
    ) -> Self {
        Arm {
            label: label.into(),
            factory: Box::new(factory),
        }
    }

    /// The arm's stable label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Instantiates the optimizer for one cell.
    pub fn build(&self, shared: Option<&SharedCache<Evaluation>>) -> Box<dyn DynOptimizer + 'p> {
        (self.factory)(shared)
    }
}

impl std::fmt::Debug for Arm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arm").field("label", &self.label).finish()
    }
}

/// Coordinates of one cell in the campaign matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellId {
    /// Index into [`Campaign::arms`].
    pub arm: usize,
    /// Index into [`Campaign::seeds`].
    pub seed_index: usize,
}

/// A full campaign: every arm runs on every seed, one run per cell.
///
/// Cells are ordered arm-major (all of arm 0's seeds, then arm 1's, …);
/// results and reports always follow this order regardless of the order
/// in which worker threads actually complete the cells.
#[derive(Debug)]
pub struct Campaign<'p> {
    name: String,
    arms: Vec<Arm<'p>>,
    seeds: Vec<u64>,
}

impl<'p> Campaign<'p> {
    /// An empty campaign named `name`; add arms and seeds before
    /// running.
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            arms: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Adds an algorithm arm (builder style).
    pub fn arm(
        mut self,
        label: impl Into<String>,
        factory: impl Fn(Option<&SharedCache<Evaluation>>) -> Box<dyn DynOptimizer + 'p> + Sync + 'p,
    ) -> Self {
        self.arms.push(Arm::new(label, factory));
        self
    }

    /// Sets the seed list shared by every arm (builder style).
    pub fn seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.seeds = seeds.into();
        self
    }

    /// The campaign name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The algorithm arms, in declaration order.
    pub fn arms(&self) -> &[Arm<'p>] {
        &self.arms
    }

    /// The seed list shared by every arm.
    pub fn seed_list(&self) -> &[u64] {
        &self.seeds
    }

    /// Total number of cells (`arms × seeds`).
    pub fn cell_count(&self) -> usize {
        self.arms.len() * self.seeds.len()
    }

    /// All cells in canonical arm-major order.
    pub fn cells(&self) -> Vec<CellId> {
        let mut out = Vec::with_capacity(self.cell_count());
        for arm in 0..self.arms.len() {
            for seed_index in 0..self.seeds.len() {
                out.push(CellId { arm, seed_index });
            }
        }
        out
    }
}
