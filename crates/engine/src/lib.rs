#![warn(missing_docs)]
//! Batched candidate evaluation for the genetic optimizers.
//!
//! Every run loop in this workspace — NSGA-II, SACGA, MESACGA, the
//! local-competition GA and the island model — ultimately does the same
//! thing: produce a batch of candidate gene vectors, evaluate each one
//! against a (potentially expensive) circuit model, and feed the results
//! back into selection. This crate owns that evaluation step end-to-end:
//!
//! * [`EvaluatorKind`] — the fan-out strategy. [`SerialEvaluator`]
//!   evaluates on the calling thread; [`ParallelEvaluator`] spreads
//!   candidates across scoped OS threads while preserving input order,
//!   so a seeded run produces bit-for-bit identical results under
//!   either evaluator.
//! * [`MemoCache`] — an LRU memoization cache keyed by gene vectors
//!   quantized to a configurable grid, so re-visited (or near-identical)
//!   candidates skip the expensive model call. [`SharedCache`] promotes
//!   the same store behind a thread-safe, cloneable handle so many
//!   concurrent runs (a campaign) can pool their evaluations; per-run
//!   hit counts stay in each engine's own [`EngineStats`].
//! * [`EngineStats`] — per-run instrumentation: candidates seen, model
//!   evaluations actually performed, cache hits, batch counts and sizes,
//!   and wall-clock time spent inside evaluation.
//! * [`ExecutionEngine`] — ties the three together behind one
//!   [`evaluate_batch`](ExecutionEngine::evaluate_batch) call, configured
//!   by an [`EngineConfig`]; an opt-in
//!   [`SurrogateScreen`] can answer obvious losers before the full model
//!   runs (counted in [`EngineStats::screened`], never cached), and a
//!   cache canonicalizer
//!   ([`set_cache_canonicalizer`](ExecutionEngine::set_cache_canonicalizer))
//!   lets problems that decode genes through a coarse discretization
//!   share cache entries across equivalent raw gene vectors.
//! * [`EvaluationSession`] — the incremental submission/completion view
//!   of the same machinery ([`with_session`](ExecutionEngine::with_session)):
//!   candidates are submitted as selection produces them, evaluate out of
//!   order on a worker pool, and drain back in deterministic submission
//!   order — the engine API behind steady-state (asynchronous)
//!   evolution. The one-shot batch calls are thin submit-all/drain-all
//!   wrappers over it, so every evaluation takes this one path.
//! * The fault layer — [`FaultPolicy`]/[`RetryPolicy`] contain evaluator
//!   panics, retry within a bounded deterministic budget, and quarantine
//!   non-finite results ([`Quarantine`]); per-candidate verdicts
//!   ([`EvalOutcome`]) surface through
//!   [`try_evaluate_batch`](ExecutionEngine::try_evaluate_batch) as
//!   values or typed [`EvalFailure`]s, with failure/retry/recovery
//!   counters in [`EngineStats`]. [`FaultInjector`] injects panics, NaN
//!   results, and artificial latency on a seeded reproducible schedule
//!   ([`FaultPlan`]) — the test harness for the whole layer.
//!
//! The crate is deliberately dependency-free and generic over the
//! evaluation closure (`Fn(&[f64]) -> T`), so it sits below the `moea`
//! crate in the dependency graph and knows nothing about `Problem` or
//! `Evaluation` types.
//!
//! # Example
//!
//! ```
//! use engine::{EngineConfig, EvaluatorKind, ExecutionEngine};
//!
//! let config = EngineConfig::default()
//!     .evaluator(EvaluatorKind::Parallel)
//!     .cache_capacity(1024);
//! let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(config);
//!
//! let batch: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![1.0, 2.0]];
//! let out = engine.evaluate_batch(&batch, &|genes: &[f64]| genes.iter().sum::<f64>());
//!
//! assert_eq!(out, vec![3.0, 7.0, 3.0]);
//! // The duplicate candidate was served from the cache:
//! assert_eq!(engine.stats().candidates, 3);
//! assert_eq!(engine.stats().evaluations, 2);
//! assert_eq!(engine.stats().cache_hits, 1);
//! ```

mod cache;
mod engine;
mod evaluator;
mod fault;
pub mod metrics;
pub mod pool;
mod screen;
pub mod session;
#[cfg(test)]
mod session_model;
mod shared;
mod stats;
mod timing;

pub use cache::{CacheConfig, MemoCache};
pub use engine::{CacheCanonicalizer, EngineConfig, ExecutionEngine};
pub use evaluator::{EvaluatorKind, ParallelEvaluator, SerialEvaluator};
pub use fault::{
    silence_injected_panics, EvalFailure, EvalOutcome, ExhaustedAction, FaultEvent, FaultInjector,
    FaultKind, FaultPlan, FaultPolicy, FaultResolution, InjectedPanic, InjectionCounts, Quarantine,
    RetryPolicy,
};
pub use metrics::{
    CellMetrics, CellSeries, Counter, EngineMetrics, Gauge, Histogram, MetricsRegistry, PoolMetrics,
};
pub use screen::SurrogateScreen;
pub use session::EvaluationSession;
pub use shared::{SharedCache, SharedCacheStats};
pub use stats::EngineStats;
pub use timing::{Stage, StageNanos, StageTimer};
