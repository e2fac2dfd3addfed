#![warn(missing_docs)]
//! # moea — multi-objective evolutionary optimization substrate
//!
//! A from-scratch, real-coded multi-objective genetic-algorithm toolkit.
//! It provides everything a partition-based diversity-controlled GA (such as
//! SACGA / MESACGA from the `sacga` crate) needs to stand on:
//!
//! * [`problem::Problem`] — the optimization-problem abstraction
//!   (box-bounded real decision variables, several minimized objectives,
//!   inequality constraints expressed as violation amounts);
//! * [`operators`] — simulated binary crossover (SBX), polynomial mutation
//!   and uniform initialization, the classic real-coded NSGA-II operator
//!   suite;
//! * [`dominance`] — Pareto dominance and Deb's constrained dominance;
//! * [`sorting`] — fast non-dominated sorting and crowding-distance
//!   assignment;
//! * [`selection`] — crowded binary tournament and rank-based roulette
//!   selection;
//! * [`nsga2`] — the configuration of the elitist non-dominated sorting
//!   GA (NSGA-II), the "traditional purely global competition" baseline
//!   of the reproduced paper; `sacga::nsga2` runs it as the one-cell
//!   preset of the cellular loop;
//! * [`hypervolume`] — the paper's origin-anchored staircase hypervolume
//!   together with conventional reference-point hypervolume in 2-D and n-D;
//! * [`metrics`] — spacing, spread, generational distance, set coverage;
//! * [`problems`] — standard benchmark suites (SCH, ZDT, BNH, SRN, TNK,
//!   OSY, CONSTR) used to validate the machinery independently of any
//!   application domain.
//!
//! All stochastic components are driven by caller-supplied [`rand::Rng`]
//! values, so every run is reproducible from a seed.
//!
//! ## Example
//!
//! Rank a random population of Schaffer's problem by constrained
//! non-dominated sorting and crowding, the step every loop in the
//! `sacga` crate (NSGA-II included) repeats each generation:
//!
//! ```
//! use moea::individual::Individual;
//! use moea::operators::random_vector;
//! use moea::problem::Problem;
//! use moea::problems::Schaffer;
//! use moea::sorting::rank_and_crowd;
//! use rand::SeedableRng;
//!
//! let problem = Schaffer::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let mut population: Vec<Individual> = (0..20)
//!     .map(|_| {
//!         let genes = random_vector(&mut rng, problem.bounds());
//!         let evaluation = problem.evaluate(&genes);
//!         Individual::new(genes, evaluation)
//!     })
//!     .collect();
//! rank_and_crowd(&mut population);
//! assert!(population.iter().any(|m| m.rank == 0));
//! ```

pub mod dominance;
pub mod error;
pub mod evaluation;
pub mod hypervolume;
pub mod individual;
pub mod metrics;
pub mod nsga2;
pub mod operators;
pub mod outcome;
pub mod problem;
pub mod problems;
pub mod selection;
pub mod setup;
pub mod sorting;

pub use dominance::{constrained_dominates, dominates, Dominance};
pub use error::OptimizeError;
pub use evaluation::Evaluation;
pub use individual::{Individual, Population};
pub use outcome::{GenerationStats, RunOutcome, RunStatus};
pub use problem::{Bounds, Problem};
pub use setup::EngineSetup;
