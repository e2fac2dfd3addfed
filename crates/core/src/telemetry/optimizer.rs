//! The unified run API implemented by every optimizer in the workspace.

use moea::nsga2::Nsga2;
use moea::problem::Problem;
use moea::{OptimizeError, RunOutcome, RunStatus};

use super::event::{EventKind, RunEvent};
use super::sink::{NullSink, Sink};

/// The checkpoint type of algorithms that cannot suspend (NSGA-II is
/// the last one). Uninhabited: a `RunStatus<NoCheckpoint>` is provably
/// always `Complete`, and `resume` on such algorithms is statically
/// uncallable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoCheckpoint {}

/// One run API for every optimization loop (NSGA-II/TPG, local
/// competition, SACGA, MESACGA, steady-state SACGA, and the cellular GA,
/// which also runs the island model).
///
/// Every entry point exists in two forms: a `*_with` method taking a
/// `&mut dyn Sink` that receives the structured [`RunEvent`] stream,
/// and a sink-free convenience wrapper. Event emission never consumes
/// RNG, so for a given seed the returned [`RunOutcome`] is bit-identical
/// whichever form is used.
///
/// Bounded runs (`run_until*` / `resume*`) are supported by every loop
/// but NSGA-II, which sets [`Checkpoint`](Optimizer::Checkpoint) to
/// [`NoCheckpoint`] and rejects `run_until` with
/// [`OptimizeError::InvalidConfig`].
pub trait Optimizer {
    /// Suspension checkpoint produced by bounded runs ([`NoCheckpoint`]
    /// for algorithms that cannot suspend).
    type Checkpoint;

    /// Stable lower-case identifier of the algorithm (e.g. `"sacga"`),
    /// for labeling streams and tables.
    fn algorithm(&self) -> &'static str;

    /// Runs to completion, emitting events into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates problem-definition errors discovered at start-up and
    /// [`OptimizeError::EvaluationFailed`] when a candidate evaluation
    /// exhausts an aborting fault policy's retry budget.
    fn run_with(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError>;

    /// Runs from `seed`, suspending once `stop_after` generations have
    /// completed, emitting events into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`run_with`](Optimizer::run_with), plus
    /// [`OptimizeError::InvalidConfig`] on algorithms that do not
    /// support suspension.
    fn run_until_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<Self::Checkpoint>, OptimizeError>;

    /// Resumes a suspended run to completion, emitting events into
    /// `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`run_with`](Optimizer::run_with), plus
    /// [`OptimizeError::InvalidCheckpoint`] when the checkpoint is
    /// inconsistent with this configuration.
    fn resume_with(
        &self,
        checkpoint: &Self::Checkpoint,
        sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError>;

    /// Resumes a suspended run, suspending again once `stop_after`
    /// total generations have completed, emitting events into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`resume_with`](Optimizer::resume_with).
    fn resume_until_with(
        &self,
        checkpoint: &Self::Checkpoint,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<Self::Checkpoint>, OptimizeError>;

    /// Runs to completion without instrumentation.
    ///
    /// # Errors
    ///
    /// Same as [`run_with`](Optimizer::run_with).
    fn run(&self, seed: u64) -> Result<RunOutcome, OptimizeError> {
        self.run_with(seed, &mut NullSink)
    }

    /// Runs from `seed`, suspending once `stop_after` generations have
    /// completed.
    ///
    /// # Errors
    ///
    /// Same as [`run_until_with`](Optimizer::run_until_with).
    fn run_until(
        &self,
        seed: u64,
        stop_after: usize,
    ) -> Result<RunStatus<Self::Checkpoint>, OptimizeError> {
        self.run_until_with(seed, stop_after, &mut NullSink)
    }

    /// Resumes a suspended run to completion.
    ///
    /// # Errors
    ///
    /// Same as [`resume_with`](Optimizer::resume_with).
    fn resume(&self, checkpoint: &Self::Checkpoint) -> Result<RunOutcome, OptimizeError> {
        self.resume_with(checkpoint, &mut NullSink)
    }

    /// Resumes a suspended run, suspending again at `stop_after`.
    ///
    /// # Errors
    ///
    /// Same as [`resume_until_with`](Optimizer::resume_until_with).
    fn resume_until(
        &self,
        checkpoint: &Self::Checkpoint,
        stop_after: usize,
    ) -> Result<RunStatus<Self::Checkpoint>, OptimizeError> {
        self.resume_until_with(checkpoint, stop_after, &mut NullSink)
    }
}

/// A checkpoint type with a plain-text serialization, bridging typed
/// checkpoints into the object-safe [`DynOptimizer`] API.
///
/// Implemented by every checkpoint type in the workspace:
/// [`SacgaCheckpoint`](crate::checkpoint::SacgaCheckpoint) and
/// [`MesacgaCheckpoint`](crate::checkpoint::MesacgaCheckpoint) wrap
/// their exact line-oriented serializations, and [`NoCheckpoint`]
/// declares itself non-suspendable (its encode path is statically
/// unreachable and its decode path always errors).
pub trait CheckpointText: Sized {
    /// Whether values of this type can actually exist — i.e. whether
    /// the algorithm supports suspension at all.
    const SUSPENDABLE: bool;

    /// Serializes the checkpoint to its text form.
    fn to_checkpoint_text(&self) -> String;

    /// Parses a checkpoint from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidCheckpoint`] on malformed,
    /// truncated, or wrong-algorithm text.
    fn from_checkpoint_text(text: &str) -> Result<Self, OptimizeError>;

    /// The generation boundary this checkpoint captures.
    fn generation(&self) -> usize;
}

impl CheckpointText for NoCheckpoint {
    const SUSPENDABLE: bool = false;

    fn to_checkpoint_text(&self) -> String {
        match *self {}
    }

    fn from_checkpoint_text(_text: &str) -> Result<Self, OptimizeError> {
        Err(OptimizeError::invalid_checkpoint(
            "this algorithm does not support suspension",
        ))
    }

    fn generation(&self) -> usize {
        match *self {}
    }
}

/// Outcome of a bounded drive through the object-safe API: either the
/// run finished, or it suspended and the checkpoint travels as opaque
/// text (re-feed it to
/// [`resume_until_dyn_with`](DynOptimizer::resume_until_dyn_with) or
/// [`resume_dyn_with`](DynOptimizer::resume_dyn_with) on an identically
/// configured optimizer).
#[derive(Debug)]
pub enum DynRunStatus {
    /// The run finished; no checkpoint exists.
    Complete(Box<RunOutcome>),
    /// The run suspended at a generation boundary.
    Suspended {
        /// Serialized checkpoint, exactly as the typed
        /// [`CheckpointText`] encoding produced it.
        checkpoint: String,
        /// Total generations executed so far.
        generations: usize,
    },
}

/// The object-safe subset of [`Optimizer`]: unbounded runs only.
///
/// [`Optimizer`] itself is not object-safe (its
/// [`Checkpoint`](Optimizer::Checkpoint) associated type differs per
/// algorithm), so heterogeneous collections of optimizers — a campaign's
/// algorithm arms, say — cannot be `Vec<Box<dyn Optimizer>>`. This trait
/// drops the checkpoint-typed entry points and keeps the parts every
/// algorithm shares; the blanket impl makes every `Optimizer + Sync`
/// usable as a `dyn DynOptimizer` with no further ceremony:
///
/// ```
/// use sacga::prelude::*;
/// use sacga::telemetry::DynOptimizer;
/// use moea::nsga2::{Nsga2, Nsga2Config};
/// use moea::problems::Schaffer;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let sacga_cfg = SacgaConfig::builder()
///     .population_size(16)
///     .generations(8)
///     .partitions(4)
///     .build()?;
/// let tpg_cfg = Nsga2Config::builder()
///     .population_size(16)
///     .generations(8)
///     .build()?;
/// let arms: Vec<Box<dyn DynOptimizer>> = vec![
///     Box::new(Sacga::new(Schaffer::new(), sacga_cfg)),
///     Box::new(Nsga2::new(Schaffer::new(), tpg_cfg)),
/// ];
/// for arm in &arms {
///     assert!(!arm.run_dyn(7)?.front.is_empty());
/// }
/// # Ok(())
/// # }
/// ```
pub trait DynOptimizer: Sync {
    /// Stable lower-case identifier of the algorithm (see
    /// [`Optimizer::algorithm`]).
    fn algorithm_dyn(&self) -> &'static str;

    /// Runs to completion, emitting events into `sink` (see
    /// [`Optimizer::run_with`]).
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::run_with`].
    fn run_dyn_with(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError>;

    /// Runs to completion without instrumentation.
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::run`].
    fn run_dyn(&self, seed: u64) -> Result<RunOutcome, OptimizeError> {
        self.run_dyn_with(seed, &mut NullSink)
    }

    /// Runs from `seed`, suspending once `stop_after` generations have
    /// completed *if the algorithm supports suspension* — otherwise
    /// runs to completion.
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::run_with`].
    fn run_until_dyn_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<DynRunStatus, OptimizeError>;

    /// Resumes a run from serialized checkpoint text, suspending again
    /// once `stop_after` total generations have completed.
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::resume_until_with`], plus
    /// [`OptimizeError::InvalidCheckpoint`] when the text does not
    /// parse as this algorithm's checkpoint.
    fn resume_until_dyn_with(
        &self,
        checkpoint: &str,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<DynRunStatus, OptimizeError>;

    /// Resumes a run from serialized checkpoint text to completion.
    ///
    /// # Errors
    ///
    /// Same as [`resume_until_dyn_with`](DynOptimizer::resume_until_dyn_with).
    fn resume_dyn_with(
        &self,
        checkpoint: &str,
        sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError>;
}

impl<O> DynOptimizer for O
where
    O: Optimizer + Sync,
    O::Checkpoint: CheckpointText,
{
    fn algorithm_dyn(&self) -> &'static str {
        self.algorithm()
    }

    fn run_dyn_with(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError> {
        self.run_with(seed, sink)
    }

    fn run_until_dyn_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<DynRunStatus, OptimizeError> {
        if !O::Checkpoint::SUSPENDABLE {
            return Ok(DynRunStatus::Complete(Box::new(self.run_with(seed, sink)?)));
        }
        Ok(match self.run_until_with(seed, stop_after, sink)? {
            RunStatus::Complete(outcome) => DynRunStatus::Complete(outcome),
            RunStatus::Suspended(cp) => DynRunStatus::Suspended {
                checkpoint: cp.to_checkpoint_text(),
                generations: cp.generation(),
            },
        })
    }

    fn resume_until_dyn_with(
        &self,
        checkpoint: &str,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<DynRunStatus, OptimizeError> {
        let cp = O::Checkpoint::from_checkpoint_text(checkpoint)?;
        Ok(match self.resume_until_with(&cp, stop_after, sink)? {
            RunStatus::Complete(outcome) => DynRunStatus::Complete(outcome),
            RunStatus::Suspended(cp) => DynRunStatus::Suspended {
                checkpoint: cp.to_checkpoint_text(),
                generations: cp.generation(),
            },
        })
    }

    fn resume_dyn_with(
        &self,
        checkpoint: &str,
        sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError> {
        let cp = O::Checkpoint::from_checkpoint_text(checkpoint)?;
        self.resume_with(&cp, sink)
    }
}

/// Unwraps an unbounded drive, which by construction never suspends.
pub(crate) fn expect_complete<C>(status: RunStatus<C>) -> RunOutcome {
    match status {
        RunStatus::Complete(outcome) => *outcome,
        RunStatus::Suspended(_) => unreachable!("unbounded runs never suspend"),
    }
}

/// NSGA-II (the paper's TPG baseline) through the unified API, adapting
/// the `moea` crate's [`Nsga2::run_traced`] hook into the event stream.
impl<P: Problem + Sync> Optimizer for Nsga2<P> {
    type Checkpoint = NoCheckpoint;

    fn algorithm(&self) -> &'static str {
        "nsga2"
    }

    fn run_with(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError> {
        let want_generation = sink.wants(EventKind::GenerationEnd);
        let want_fault = sink.wants(EventKind::EvaluationFault);
        let want_timing = sink.wants(EventKind::StageTiming);
        let emit = |trace: moea::nsga2::GenerationTrace<'_>| {
            if want_fault {
                for fault in &trace.faults {
                    sink.record(&RunEvent::EvaluationFault {
                        generation: trace.generation,
                        kind: fault.kind,
                        failures: fault.failures,
                        resolution: fault.resolution,
                    });
                }
            }
            if want_generation && trace.generation > 0 {
                let front: Vec<Vec<f64>> = trace
                    .population
                    .iter()
                    .filter(|m| m.rank == 0 && m.is_feasible())
                    .map(|m| m.objectives().to_vec())
                    .collect();
                let feasible = trace.population.iter().filter(|m| m.is_feasible()).count();
                sink.record(&RunEvent::GenerationEnd {
                    generation: trace.generation,
                    phase: 2,
                    temperature: 1.0,
                    promoted: 0,
                    feasible,
                    population: trace.population.len(),
                    evaluations: trace.evaluations,
                    front,
                });
            }
            if let Some(timing) = &trace.timing {
                sink.record(&RunEvent::StageTiming {
                    generation: trace.generation,
                    stages: timing.stages,
                    candidates: timing.candidates,
                    evaluations: timing.evaluations,
                    cache_hits: timing.cache_hits,
                });
            }
        };
        if want_timing {
            self.run_traced_timed(seed, emit)
        } else {
            self.run_traced(seed, emit)
        }
    }

    fn run_until_with(
        &self,
        _seed: u64,
        _stop_after: usize,
        _sink: &mut dyn Sink,
    ) -> Result<RunStatus<NoCheckpoint>, OptimizeError> {
        Err(OptimizeError::invalid_config(
            "stop_after",
            "NSGA-II does not support suspension; use run",
        ))
    }

    fn resume_with(
        &self,
        checkpoint: &NoCheckpoint,
        _sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError> {
        match *checkpoint {}
    }

    fn resume_until_with(
        &self,
        checkpoint: &NoCheckpoint,
        _stop_after: usize,
        _sink: &mut dyn Sink,
    ) -> Result<RunStatus<NoCheckpoint>, OptimizeError> {
        match *checkpoint {}
    }
}
