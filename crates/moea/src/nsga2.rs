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
use engine::EngineConfig;

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
