//! The unified run API implemented by every optimizer in the workspace.

use moea::{OptimizeError, RunOutcome, RunStatus};

use super::sink::{NullSink, Sink};

/// One run API for every optimizer. The local-competition GA, SACGA,
/// MESACGA and steady-state SACGA run the partitioned loop of
/// [`steady`](crate::steady); the cellular GA, the island model and
/// NSGA-II (the paper's TPG baseline) run the structured loop of
/// [`cellular`](crate::cellular).
///
/// Every entry point exists in two forms: a `*_with` method taking a
/// `&mut dyn Sink` that receives the structured
/// [`RunEvent`](super::RunEvent) stream, and a sink-free convenience
/// wrapper. Event emission never consumes RNG, so for a given seed the
/// returned [`RunOutcome`] is bit-identical whichever form is used.
///
/// Every optimizer supports bounded runs (`run_until*` / `resume*`): a
/// run suspends at a generation boundary into its
/// [`Checkpoint`](Optimizer::Checkpoint), and resuming it is
/// bit-identical to never having stopped.
///
/// An arm implements two methods, the bounded
/// [`run_until_with`](Optimizer::run_until_with) and
/// [`resume_until_with`](Optimizer::resume_until_with); every other
/// entry point is provided on top of them, the unbounded ones with a
/// stop bound of `usize::MAX`, which no run reaches.
pub trait Optimizer {
    /// Suspension checkpoint produced by bounded runs.
    type Checkpoint;

    /// Stable lower-case identifier of the algorithm (e.g. `"sacga"`),
    /// for labeling streams and tables.
    fn algorithm(&self) -> &'static str;

    /// Runs from `seed`, suspending once `stop_after` generations have
    /// completed, emitting events into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates problem-definition errors discovered at start-up and
    /// [`OptimizeError::EvaluationFailed`] when a candidate evaluation
    /// exhausts an aborting fault policy's retry budget.
    fn run_until_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<Self::Checkpoint>, OptimizeError>;

    /// Resumes a suspended run, suspending again once `stop_after`
    /// total generations have completed, emitting events into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`run_until_with`](Optimizer::run_until_with), plus
    /// [`OptimizeError::InvalidCheckpoint`] when the checkpoint is
    /// inconsistent with this configuration or the problem.
    fn resume_until_with(
        &self,
        checkpoint: &Self::Checkpoint,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<Self::Checkpoint>, OptimizeError>;

    /// Runs to completion, emitting events into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`run_until_with`](Optimizer::run_until_with).
    fn run_with(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError> {
        self.run_until_with(seed, usize::MAX, sink)
            .map(expect_complete)
    }

    /// Resumes a suspended run to completion, emitting events into
    /// `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`resume_until_with`](Optimizer::resume_until_with).
    fn resume_with(
        &self,
        checkpoint: &Self::Checkpoint,
        sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError> {
        self.resume_until_with(checkpoint, usize::MAX, sink)
            .map(expect_complete)
    }

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
/// Implemented by every checkpoint type in the workspace
/// ([`SacgaCheckpoint`](crate::checkpoint::SacgaCheckpoint),
/// [`MesacgaCheckpoint`](crate::checkpoint::MesacgaCheckpoint),
/// [`SteadyCheckpoint`](crate::checkpoint::SteadyCheckpoint) and
/// [`CellularCheckpoint`](crate::checkpoint::CellularCheckpoint)), each
/// wrapping its exact line-oriented serialization.
pub trait CheckpointText: Sized {
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

/// The object-safe form of [`Optimizer`], with checkpoints carried as
/// text.
///
/// [`Optimizer`] itself is not object-safe (its
/// [`Checkpoint`](Optimizer::Checkpoint) associated type differs per
/// algorithm), so heterogeneous collections of optimizers — a campaign's
/// algorithm arms, say — cannot be `Vec<Box<dyn Optimizer>>`. This trait
/// passes every checkpoint through its [`CheckpointText`] serialization
/// instead; the blanket impl makes every `Optimizer + Sync` usable as a
/// `dyn DynOptimizer` with no further ceremony:
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
    /// completed (see [`Optimizer::run_until_with`]).
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::run_until_with`].
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
        self.run_until_with(seed, stop_after, sink).map(dyn_status)
    }

    fn resume_until_dyn_with(
        &self,
        checkpoint: &str,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<DynRunStatus, OptimizeError> {
        let cp = O::Checkpoint::from_checkpoint_text(checkpoint)?;
        self.resume_until_with(&cp, stop_after, sink)
            .map(dyn_status)
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

/// Carries a typed bounded-run status across the object-safe boundary,
/// serializing a checkpoint to its text.
fn dyn_status<C: CheckpointText>(status: RunStatus<C>) -> DynRunStatus {
    match status {
        RunStatus::Complete(outcome) => DynRunStatus::Complete(outcome),
        RunStatus::Suspended(cp) => DynRunStatus::Suspended {
            checkpoint: cp.to_checkpoint_text(),
            generations: cp.generation(),
        },
    }
}

/// Unwraps an unbounded drive, which by construction never suspends.
fn expect_complete<C>(status: RunStatus<C>) -> RunOutcome {
    match status {
        RunStatus::Complete(outcome) => *outcome,
        RunStatus::Suspended(_) => unreachable!("unbounded runs never suspend"),
    }
}
