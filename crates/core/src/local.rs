//! The pure local-competition GA of Sec. 4.3: SACGA in
//! [`CompetitionMode::LocalOnly`], which never promotes.
//!
//! Within each iteration, only local competition happens inside each
//! partition; a Global Mating Pool is still drawn by rank-based selection
//! over the whole population, and a single global competition at output
//! time extracts the Global Pareto Front. The paper observes that this
//! preserves diversity well but advances the front "extremely slowly"
//! because many locally superior solutions are globally inferior — the
//! motivation for SACGA's annealed promotion.
//!
//! [`LocalCompetitionGaBuilder`] builds a [`Sacga`] in that mode, so the
//! local GA runs on the same partitioned loop, writes the same
//! `sacga-checkpoint v1` format and reports `"local"` as its algorithm.

use crate::sacga::{CompetitionMode, Sacga, SacgaConfig, SacgaConfigBuilder};
use moea::problem::Problem;
use moea::OptimizeError;

/// The pure local-competition GA: a [`Sacga`] in
/// [`CompetitionMode::LocalOnly`].
///
/// # Examples
///
/// ```
/// use sacga::local::LocalCompetitionGaBuilder;
/// use sacga::telemetry::Optimizer;
/// use moea::problems::Schaffer;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let ga = LocalCompetitionGaBuilder::new()
///     .population_size(40)
///     .generations(30)
///     .partitions(6)
///     .build(Schaffer::new())?;
/// assert_eq!(ga.algorithm(), "local");
/// let result = ga.run_seeded(7)?;
/// assert!(!result.front.is_empty());
/// # Ok(())
/// # }
/// ```
pub type LocalCompetitionGa<P> = Sacga<P>;

/// Builder for [`LocalCompetitionGa`].
#[derive(Debug, Clone)]
pub struct LocalCompetitionGaBuilder {
    inner: SacgaConfigBuilder,
}

impl Default for LocalCompetitionGaBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalCompetitionGaBuilder {
    /// Starts a builder with the default SACGA parameters.
    pub fn new() -> Self {
        LocalCompetitionGaBuilder {
            inner: SacgaConfig::builder(),
        }
    }

    /// Sets the population size.
    pub fn population_size(mut self, n: usize) -> Self {
        self.inner = self.inner.population_size(n);
        self
    }

    /// Sets the generation budget.
    pub fn generations(mut self, n: usize) -> Self {
        self.inner = self.inner.generations(n);
        self
    }

    /// Sets the partition count.
    pub fn partitions(mut self, m: usize) -> Self {
        self.inner = self.inner.partitions(m);
        self
    }

    /// Fixes the partitioned objective range.
    pub fn slice_range(mut self, lo: f64, hi: f64) -> Self {
        self.inner = self.inner.slice_range(lo, hi);
        self
    }

    /// Chooses the partitioned objective.
    pub fn slice_objective(mut self, k: usize) -> Self {
        self.inner = self.inner.slice_objective(k);
        self
    }

    /// Replaces the whole engine-knob bundle at once (see
    /// [`moea::EngineSetup`]).
    pub fn engine_setup(mut self, exec: moea::setup::EngineSetup) -> Self {
        self.inner = self.inner.engine_setup(exec);
        self
    }

    /// Selects the candidate-evaluation strategy (default: serial).
    pub fn evaluator(mut self, evaluator: impl Into<engine::EvaluatorKind>) -> Self {
        self.inner = self.inner.evaluator(evaluator);
        self
    }

    /// Enables evaluation memoization with room for `capacity` entries.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.inner = self.inner.cache_capacity(capacity);
        self
    }

    /// Sets the memoization quantization grid (must be positive).
    pub fn cache_grid(mut self, grid: f64) -> Self {
        self.inner = self.inner.cache_grid(grid);
        self
    }

    /// Sets the fault-handling policy for candidate evaluation.
    pub fn fault_policy(mut self, fault: engine::FaultPolicy) -> Self {
        self.inner = self.inner.fault_policy(fault);
        self
    }

    /// Enables deterministic fault injection with the given plan.
    pub fn inject_faults(mut self, plan: engine::FaultPlan) -> Self {
        self.inner = self.inner.inject_faults(plan);
        self
    }

    /// Routes memoization through a cache pooled across concurrent runs
    /// (see [`SacgaConfigBuilder::shared_cache`]).
    pub fn shared_cache(mut self, cache: engine::SharedCache<moea::Evaluation>) -> Self {
        self.inner = self.inner.shared_cache(cache);
        self
    }

    /// Attaches an opt-in analytic surrogate screen (see
    /// [`SacgaConfigBuilder::surrogate_screen`]): screened runs are not
    /// byte-identical to unscreened ones.
    pub fn surrogate_screen(mut self, screen: engine::SurrogateScreen<moea::Evaluation>) -> Self {
        self.inner = self.inner.surrogate_screen(screen);
        self
    }

    /// Attaches a live [`engine::EngineMetrics`] bundle (see
    /// [`SacgaConfigBuilder::metrics`]).
    pub fn metrics(mut self, metrics: engine::EngineMetrics) -> Self {
        self.inner = self.inner.metrics(metrics);
        self
    }

    /// Finalizes against a problem.
    ///
    /// # Errors
    ///
    /// Same as [`SacgaConfigBuilder::build`].
    pub fn build<P: Problem>(self, problem: P) -> Result<LocalCompetitionGa<P>, OptimizeError> {
        let config = self.inner.mode(CompetitionMode::LocalOnly).build()?;
        Ok(Sacga::new(problem, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Optimizer;
    use moea::problems::Schaffer;

    #[test]
    fn local_only_run_produces_front() {
        let ga = LocalCompetitionGaBuilder::new()
            .population_size(30)
            .generations(20)
            .partitions(5)
            .build(Schaffer::new())
            .unwrap();
        let r = ga.run_seeded(3).unwrap();
        assert!(!r.front.is_empty());
        assert!(r.history.iter().all(|h| h.promoted == 0));
    }

    #[test]
    fn local_only_is_deterministic() {
        let make = || {
            LocalCompetitionGaBuilder::new()
                .population_size(30)
                .generations(15)
                .partitions(5)
                .build(Schaffer::new())
                .unwrap()
        };
        let a = make().run_seeded(9).unwrap();
        let b = make().run_seeded(9).unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
    }

    #[test]
    fn events_are_forwarded_from_the_inner_engine() {
        use crate::telemetry::{MemorySink, RunEvent};
        let ga = LocalCompetitionGaBuilder::new()
            .population_size(20)
            .generations(10)
            .partitions(4)
            .build(Schaffer::new())
            .unwrap();
        assert_eq!(ga.algorithm(), "local");
        let mut sink = MemorySink::new();
        let r = ga.run_with(1, &mut sink).unwrap();
        let ends = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::GenerationEnd { .. }))
            .count();
        assert_eq!(ends, 10);
        assert_eq!(r.generations, 10);
        // LocalOnly mode never crosses a phase boundary or promotes.
        assert!(!sink.events().iter().any(|e| matches!(
            e,
            RunEvent::PhaseTransition { .. } | RunEvent::Promotion { .. }
        )));
    }
}
