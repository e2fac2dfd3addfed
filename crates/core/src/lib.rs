#![warn(missing_docs)]
//! # sacga — mixing local and global competition in genetic optimization
//!
//! Implementation of the DATE 2005 paper *"Mixing Global and Local
//! Competition in Genetic Optimization based Design Space Exploration of
//! Analog Circuits"* (Somani, Chakrabarti, Patra).
//!
//! Traditional multi-objective GAs rank every individual against every
//! other (*purely global competition*), which on tightly-constrained
//! problems lets an early feasible cluster take over: crossover keeps
//! producing children *inside* the cluster, weaker outlying solutions lose
//! the global competition and die, and the Pareto front ends up covering a
//! small fraction of the objective space.
//!
//! This crate provides the paper's remedies on top of the [`moea`]
//! substrate:
//!
//! * [`partition`] — slicing the objective space into partitions along one
//!   objective, inducing *local* competitions;
//! * [`local`] — the pure local-competition GA of Sec. 4.3 (diverse but
//!   slow to converge);
//! * [`anneal`] — the simulated-annealing machinery of Sec. 4.4: the
//!   promotion-cost function `c = k₁·e^(k₂·i/(n−1))`, the participation
//!   probability `prob = 1 − e^(−α/(c·T_A))`, the cooling schedule
//!   `T_A = T_init·e^(−k₃·ln(T_init)/span·(gen−gen_t))`, and a closed-form
//!   [`ProbabilityShaper`] that solves the
//!   constants from target probabilities (reproducing Fig. 4);
//! * [`sacga`] — the Simulated-Annealing-driven Competition GA: pure local
//!   competition transitioning gradually into pure global competition;
//! * [`mesacga`] — the Multi-phase Expanding-partitions SACGA of Sec. 4.5:
//!   a cascade of SACGA phases with progressively fewer, larger partitions
//!   (e.g. 20 → 13 → 8 → 5 → 3 → 2 → 1), removing the need to guess the
//!   optimal static partition count;
//! * [`steady`] — steady-state SACGA: the same algorithm driven through
//!   the engine's incremental submission/completion API, with no
//!   per-generation evaluation barrier and bit-identical seeded results
//!   across worker counts;
//! * [`cellular`] — a structured-population GA over a pluggable
//!   neighborhood [`topology`] (ring, torus, fully-connected,
//!   small-world) that degenerates bit-for-bit to the [`island`] model
//!   on a fully-connected graph, and to NSGA-II ([`nsga2`], the paper's
//!   TPG baseline) on a single cell;
//! * [`checkpoint`] — plain-text run checkpoints: every run can be
//!   suspended at any generation boundary ([`Optimizer::run_until`]) and
//!   resumed bit-identically, including across process restarts.
//!
//! There are two loops: the partitioned loop of [`steady`], which runs
//! [`local`], [`sacga`], [`mesacga`] and steady-state SACGA, and the
//! structured loop of [`cellular`], which runs the cellular GA,
//! [`island`] and [`nsga2`]. Every arm implements the unified
//! [`Optimizer`] run API and emits the structured [`RunEvent`] stream of
//! the [`telemetry`] module into composable [`Sink`]s.
//!
//! ## Example
//!
//! ```
//! use sacga::prelude::*;
//! use moea::problems::Schaffer;
//!
//! # fn main() -> Result<(), moea::OptimizeError> {
//! let config = SacgaConfig::builder()
//!     .population_size(40)
//!     .generations(60)
//!     .partitions(8)
//!     .build()?;
//! let ga = Sacga::new(Schaffer::new(), config);
//!
//! // Instrumented run: a memory sink captures the event stream.
//! let mut sink = MemorySink::new();
//! let result = ga.run_with(42, &mut sink)?;
//! assert!(!result.front.is_empty());
//!
//! // Sinks never consume RNG: the bare run is bit-identical.
//! assert_eq!(ga.run(42)?.front_objectives(), result.front_objectives());
//! let ends = sink
//!     .events()
//!     .iter()
//!     .filter(|e| e.kind() == EventKind::GenerationEnd)
//!     .count();
//! assert_eq!(ends, result.generations);
//! # Ok(())
//! # }
//! ```

pub mod anneal;
pub mod cellular;
pub mod checkpoint;
pub mod island;
pub mod local;
pub mod mesacga;
pub mod nsga2;
pub mod partition;
pub mod prelude;
pub mod sacga;
pub mod steady;
pub mod telemetry;
pub mod topology;

pub use anneal::{AnnealingSchedule, ProbabilityShaper, PromotionPolicy};
pub use cellular::{CellularConfig, CellularGa};
pub use checkpoint::{
    cell_artifact_name, CellularCheckpoint, EngineState, MesacgaCheckpoint, SacgaCheckpoint,
    SavedIndividual, SteadyCheckpoint,
};
pub use island::{IslandConfig, IslandGa};
pub use mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
pub use partition::PartitionGrid;
pub use sacga::{Sacga, SacgaConfig};
pub use steady::{SteadyConfig, SteadySacga};
pub use telemetry::{
    CheckpointText, DynOptimizer, DynRunStatus, EventKind, FaultRateAlarm, HealthWarning,
    InfeasibilityAlarm, JsonlSink, MemorySink, MetricsRow, MetricsSink, NullSink, Optimizer,
    RunEvent, Sink, StallDetector, Tee, EVENT_SCHEMA_VERSION,
};
pub use topology::Topology;
