#![warn(missing_docs)]
//! Campaign orchestration: many runs as the unit of work.
//!
//! The paper's headline claim — SACGA/MESACGA fronts are *more diverse
//! and no worse converged* than the purely-global baseline — is
//! distributional: it is a statement about seed ensembles, not about
//! any single run. This crate treats the seed × algorithm matrix as the
//! first-class object:
//!
//! * [`Campaign`] — the specification: algorithm arms (each an
//!   object-safe [`DynOptimizer`](sacga::telemetry::DynOptimizer)
//!   factory) × a pinned seed list;
//! * [`CampaignRunner`] — a work-stealing multi-threaded executor.
//!   Cells run via the unified `Optimizer` API, optionally pooling
//!   evaluations through a campaign-wide
//!   [`SharedCache`](engine::SharedCache), fanning per-run telemetry
//!   out as JSONL, and persisting each finished cell so a killed
//!   campaign resumes exactly where it stopped;
//! * [`CellResult`] — the scheduling-independent facts of one run
//!   (front, counters), with an exact plain-text serialization;
//! * [`stats`] — exact Mann-Whitney rank-sum and bootstrap confidence
//!   intervals, implemented with integer / sorted-`f64` arithmetic only
//!   so every number is bit-stable across platforms and repetitions;
//! * [`CampaignReport`] — per-cell metrics (hypervolume, spread,
//!   occupancy via `moea::metrics`) plus pairwise arm comparisons,
//!   rendered as deterministic JSON.
//!
//! # Determinism contract
//!
//! A cell's result depends only on `(arm, seed)`. Thread count, cell
//! interleaving, shared-cache hits, kills and resumes change *how much
//! work* the campaign does, never *what it computes*: the acceptance
//! tests pin that a 4-thread shared-cache campaign is bit-identical,
//! cell for cell, to each run executed serially in isolation, and that
//! the aggregate report of a killed-and-resumed campaign is
//! byte-identical to an uninterrupted one.
//!
//! # Example
//!
//! ```
//! use campaign::{Campaign, CampaignRunner, RunnerConfig};
//! use campaign::{CampaignReport, Metric, MetricSpec};
//! use moea::problems::Schaffer;
//! use sacga::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two arms: 4-partition SACGA vs the 1-partition degenerate (the
//! // paper's TPG baseline), 4 seeds each.
//! let sacga = |partitions: usize| {
//!     move |shared: Option<&engine::SharedCache<moea::Evaluation>>| {
//!         let mut b = SacgaConfig::builder()
//!             .population_size(16)
//!             .generations(10)
//!             .partitions(partitions);
//!         if let Some(cache) = shared {
//!             b = b.engine_setup(EngineSetup::new().shared_cache(cache.clone()));
//!         }
//!         let config = b.build().expect("static config");
//!         Box::new(Sacga::new(Schaffer::new(), config)) as Box<dyn DynOptimizer>
//!     }
//! };
//! let campaign = Campaign::new("schaffer-demo")
//!     .arm("sacga4", sacga(4))
//!     .arm("tpg", sacga(1))
//!     .seeds(vec![1, 2, 3, 4]);
//!
//! let runner = CampaignRunner::new(
//!     RunnerConfig::default()
//!         .threads(2)
//!         .shared_cache(engine::CacheConfig::with_capacity(4096)),
//! );
//! let results = runner.run(&campaign)?;
//! assert_eq!(results.len(), 8);
//!
//! let labels: Vec<String> = campaign.arms().iter().map(|a| a.label().to_string()).collect();
//! let spec = MetricSpec::new([4.5, 4.5], (0.0, 4.0), 8);
//! let report = CampaignReport::build(campaign.name(), &labels, &results, &spec);
//! assert!(report.comparison("sacga4", "tpg", Metric::Occupancy).is_some());
//! # Ok(())
//! # }
//! ```

mod cell;
mod error;
mod report;
mod runner;
mod spec;
pub mod stats;

pub use cell::CellResult;
pub use error::CampaignError;
pub use report::{
    front_metrics, ArmReport, CampaignReport, CellReport, Comparison, FrontMetrics, Metric,
    MetricSpec,
};
pub use runner::{CampaignRunner, RunnerConfig};
pub use spec::{Arm, ArmFactory, Campaign, CellId};
