//! Run-event observability: a structured, versioned event stream
//! ([`RunEvent`], serialized as JSONL at schema version
//! [`EVENT_SCHEMA_VERSION`]) emitted by every optimizer through
//! composable [`Sink`]s, plus the unified [`Optimizer`] run API
//! implemented by every optimizer arm.
//!
//! # Design invariants
//!
//! * **Sinks never steer.** Event construction and recording read
//!   optimizer state but never consume RNG or mutate the run, so a
//!   seeded run is bit-identical with or without sinks attached.
//! * **`GenerationEnd` count equals generations executed.** Every loop
//!   emits exactly one [`RunEvent::GenerationEnd`] per executed
//!   generation (the initial population is generation 0 and emits
//!   none), across fresh, bounded and resumed runs.
//! * **Cheap when unwatched.** Loops consult [`Sink::wants`] before
//!   constructing expensive payloads (the per-generation front inside
//!   `GenerationEnd` costs a clone + non-dominated sort), so
//!   un-instrumented runs skip that work entirely.
//!
//! # Example
//!
//! ```
//! use sacga::prelude::*;
//! use moea::problems::Schaffer;
//!
//! # fn main() -> Result<(), moea::OptimizeError> {
//! let config = SacgaConfig::builder()
//!     .population_size(20)
//!     .generations(10)
//!     .partitions(4)
//!     .build()?;
//! let mut sink = MemorySink::new();
//! let outcome = Sacga::new(Schaffer::new(), config).run_with(42, &mut sink)?;
//! let ends = sink
//!     .events()
//!     .iter()
//!     .filter(|e| e.kind() == EventKind::GenerationEnd)
//!     .count();
//! assert_eq!(ends, outcome.generations);
//! # Ok(())
//! # }
//! ```

mod event;
mod json;
mod metrics;
mod optimizer;
mod registry;
mod sink;
mod watchdog;

pub use event::{EventKind, RunEvent, EVENT_SCHEMA_VERSION};
pub use json::{EventParseError, LossyReplay};
pub use metrics::{MetricsRow, MetricsSink};
pub(crate) use optimizer::expect_complete;
pub use optimizer::{CheckpointText, DynOptimizer, DynRunStatus, Optimizer};
pub use registry::RegistrySink;
pub use sink::{JsonlSink, MemorySink, NullSink, Sink, Tee};
pub use watchdog::{FaultRateAlarm, HealthWarning, InfeasibilityAlarm, StallDetector};
