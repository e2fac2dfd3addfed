//! One-stop imports for driving any of the seven optimizer arms
//! through the unified [`Optimizer`] API with instrumentation attached.
//! Every arm's builder takes its engine knobs as one [`EngineSetup`].
//!
//! ```
//! use sacga::prelude::*;
//! use moea::problems::Schaffer;
//!
//! # fn main() -> Result<(), moea::OptimizeError> {
//! let config = MesacgaConfig::builder()
//!     .population_size(40)
//!     .phase1_max(5)
//!     .phases(vec![PhaseSpec::new(4, 10), PhaseSpec::new(1, 10)])
//!     .build()?;
//! let mut sink = MemorySink::new();
//! let outcome = Mesacga::new(Schaffer::new(), config).run_with(11, &mut sink)?;
//! assert!(!outcome.front.is_empty());
//! assert!(sink.events().iter().any(|e| e.kind() == EventKind::PhaseTransition));
//! # Ok(())
//! # }
//! ```

pub use crate::cellular::{CellularConfig, CellularConfigBuilder, CellularGa};
pub use crate::checkpoint::{
    CellularCheckpoint, EngineState, MesacgaCheckpoint, SacgaCheckpoint, SavedIndividual,
    SteadyCheckpoint,
};
pub use crate::island::{IslandConfig, IslandGa};
pub use crate::local::{LocalCompetitionGa, LocalCompetitionGaBuilder};
pub use crate::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
pub use crate::sacga::{CompetitionMode, Sacga, SacgaConfig};
pub use crate::steady::{SteadyConfig, SteadyConfigBuilder, SteadySacga};
pub use crate::telemetry::{
    DynOptimizer, EventKind, EventParseError, FaultRateAlarm, HealthWarning, InfeasibilityAlarm,
    JsonlSink, MemorySink, MetricsRow, MetricsSink, NullSink, Optimizer, RunEvent, Sink,
    StallDetector, Tee, EVENT_SCHEMA_VERSION,
};
pub use crate::topology::Topology;
pub use moea::nsga2::Nsga2;
pub use moea::{EngineSetup, GenerationStats, OptimizeError, RunOutcome, RunStatus};
