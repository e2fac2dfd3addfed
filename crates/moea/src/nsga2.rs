//! NSGA-II — the elitist non-dominated sorting genetic algorithm
//! (Deb, Pratap, Agarwal, Meyarivan, 2002), with Deb's constrained
//! dominance.
//!
//! In the reproduced paper this algorithm is the baseline, referred to as
//! **TPG** — *Traditional Purely Global competition* based GA: every
//! individual competes with every other individual in a single global
//! non-dominated sort each generation.
//!
//! This module holds the configuration and the (problem, configuration)
//! pair. The run itself is the `sacga` crate's cellular loop on one
//! fully-connected cell with closed mating, which breeds exactly as
//! NSGA-II does: a crowded binary tournament per parent, SBX and
//! polynomial mutation, and µ+λ environmental selection by constrained
//! non-dominated sorting and crowding. `sacga::nsga2` implements the
//! unified `Optimizer` API for [`Nsga2`] on that preset.

use crate::error::OptimizeError;
use crate::operators::Variation;
use crate::problem::Problem;
use crate::setup::EngineSetup;
use engine::{EngineConfig, EvaluatorKind, FaultPlan, FaultPolicy, SharedCache, SurrogateScreen};

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

    /// The variation override, if any (`None`: [`Variation::standard`]
    /// for the problem's dimension).
    pub fn variation(&self) -> Option<Variation> {
        self.variation
    }

    /// Evaluation-engine settings.
    pub fn engine(&self) -> &EngineConfig {
        self.exec.engine()
    }

    /// The whole engine-knob bundle.
    pub fn engine_setup(&self) -> &EngineSetup {
        &self.exec
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

/// The NSGA-II optimizer: a problem and its configuration. Run it
/// through `sacga`'s `Optimizer` API.
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
/// let tpg = Nsga2::new(Zdt1::new(10), config);
/// assert_eq!(tpg.config().population_size(), 48);
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

    /// The problem being optimized.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// The run configuration.
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(Nsga2Config::builder().population_size(3).build().is_err());
        assert!(Nsga2Config::builder().population_size(5).build().is_err());
        assert!(Nsga2Config::builder().generations(0).build().is_err());
        assert!(Nsga2Config::builder().build().is_ok());
    }
}
