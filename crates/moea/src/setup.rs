//! The engine knobs of every optimizer, in one bundle.
//!
//! Every loop in the workspace — NSGA-II here, SACGA/MESACGA/local/island
//! and the steady-state variant in the `sacga` crate — takes the same
//! engine knobs: evaluator strategy, memoization capacity and grid, fault
//! policy, fault injection, a pooled [`SharedCache`], an opt-in
//! [`SurrogateScreen`] and live metrics. [`EngineSetup`]
//! holds them, and each config builder takes one whole through its
//! `engine_setup` method, the only way a builder sets them; handing the
//! same setup to several arms runs them under the same evaluation
//! settings. [`EngineSetup::build_engine`] performs the engine
//! construction: config, pooled cache, the problem's cache
//! canonicalizer, the screen and the metrics — in that order,
//! identically for fresh and resumed runs.
//!
//! ```
//! use engine::EvaluatorKind;
//! use moea::nsga2::Nsga2Config;
//! use moea::EngineSetup;
//!
//! let config = Nsga2Config::builder()
//!     .population_size(40)
//!     .engine_setup(
//!         EngineSetup::new()
//!             .evaluator(EvaluatorKind::ParallelWith(2))
//!             .cache_capacity(1 << 12),
//!     )
//!     .build()
//!     .unwrap();
//! assert_eq!(config.engine().cache.capacity, 1 << 12);
//! ```

use engine::{
    CacheCanonicalizer, EngineConfig, EngineMetrics, EvaluatorKind, ExecutionEngine, FaultPlan,
    FaultPolicy, SharedCache, SurrogateScreen,
};

use crate::evaluation::Evaluation;

/// The engine knobs shared by every optimizer's config builder, plus the
/// construction recipe that turns them into an [`ExecutionEngine`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineSetup {
    engine: EngineConfig,
    shared_cache: Option<SharedCache<Evaluation>>,
    surrogate_screen: Option<SurrogateScreen<Evaluation>>,
    metrics: Option<EngineMetrics>,
}

impl EngineSetup {
    /// Starts from the defaults: serial evaluator, no cache, aborting
    /// fault policy, no injection, no shared cache, no screen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the candidate-evaluation strategy (default: serial).
    pub fn evaluator(mut self, evaluator: EvaluatorKind) -> Self {
        self.engine = self.engine.evaluator(evaluator);
        self
    }

    /// Enables evaluation memoization with room for `capacity` entries
    /// (default: disabled).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.engine = self.engine.cache_capacity(capacity);
        self
    }

    /// Sets the memoization quantization grid (must be positive).
    pub fn cache_grid(mut self, grid: f64) -> Self {
        self.engine = self.engine.cache_grid(grid);
        self
    }

    /// Sets the fault-handling policy for candidate evaluation: retry
    /// budget, non-finite quarantine, and exhaustion behavior.
    pub fn fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.engine = self.engine.fault_policy(fault);
        self
    }

    /// Enables deterministic fault injection with the given plan (a
    /// testing/chaos harness — injected faults are reproducible per
    /// candidate).
    pub fn inject_faults(mut self, plan: FaultPlan) -> Self {
        self.engine = self.engine.inject_faults(plan);
        self
    }

    /// Routes memoization through a [`SharedCache`] pooled across
    /// concurrent runs (a campaign) instead of a private per-run cache.
    /// Cached evaluations are pure functions of the genes, so sharing
    /// never changes a run's results — only how many model evaluations
    /// it performs.
    pub fn shared_cache(mut self, cache: SharedCache<Evaluation>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Attaches an opt-in [`SurrogateScreen`]: candidates the screen
    /// answers skip the full model (counted in
    /// [`engine::EngineStats::screened`], never cached). Screening
    /// changes which candidates reach the model, so runs with an active
    /// screen are *not* byte-identical to unscreened runs — leave this
    /// unset (or use a never-firing screen) to keep pinned artifacts
    /// reproducible.
    pub fn surrogate_screen(mut self, screen: SurrogateScreen<Evaluation>) -> Self {
        self.surrogate_screen = Some(screen);
        self
    }

    /// Attaches a live [`EngineMetrics`] bundle (handles into a
    /// [`engine::MetricsRegistry`]): the engine adds its counters' gains
    /// to the registry at every drain boundary and records
    /// latency/batch-size histograms. Observation only — an instrumented
    /// run is bit-identical to a bare one.
    pub fn metrics(mut self, metrics: EngineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The raw engine configuration.
    pub fn engine(&self) -> &EngineConfig {
        &self.engine
    }

    /// Builds the execution engine for a run: engine config, pooled
    /// cache, the problem's cache canonicalizer, and the optional
    /// surrogate screen. Fresh and resumed runs call this with the same
    /// arguments so the evaluation path is wired identically.
    pub fn build_engine(
        &self,
        canonicalizer: Option<CacheCanonicalizer>,
    ) -> ExecutionEngine<Evaluation> {
        let mut exec = ExecutionEngine::new(self.engine.clone());
        if let Some(shared) = &self.shared_cache {
            exec.attach_shared_cache(shared.clone());
        }
        if let Some(f) = canonicalizer {
            exec.set_cache_canonicalizer(f);
        }
        if let Some(screen) = &self.surrogate_screen {
            exec.attach_screen(screen.clone());
        }
        if let Some(metrics) = &self.metrics {
            exec.attach_metrics(metrics.clone());
        }
        exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_accumulate_into_the_engine_config() {
        let setup = EngineSetup::new()
            .evaluator(EvaluatorKind::ParallelWith(3))
            .cache_capacity(64)
            .cache_grid(1e-6);
        assert_eq!(setup.engine().evaluator, EvaluatorKind::ParallelWith(3));
        let mut exec = setup.build_engine(None);
        let batch = vec![vec![1.0], vec![1.0]];
        let eval = |g: &[f64]| Evaluation::new(vec![g[0]], vec![]);
        let out = exec.evaluate_batch(&batch, &eval);
        assert_eq!(out[0].objectives(), &[1.0]);
        assert_eq!(exec.stats().cache_hits, 1, "cache capacity must be wired");
    }

    #[test]
    fn shared_cache_is_attached() {
        let shared: SharedCache<Evaluation> =
            SharedCache::new(engine::CacheConfig::with_capacity(32));
        let setup = EngineSetup::new().shared_cache(shared.clone());
        let mut a = setup.build_engine(None);
        let mut b = setup.build_engine(None);
        let eval = |g: &[f64]| Evaluation::new(vec![g[0]], vec![]);
        a.evaluate_batch(&[vec![2.0]], &eval);
        b.evaluate_batch(&[vec![2.0]], &eval);
        assert_eq!(b.stats().cache_hits, 1, "second engine must reuse the pool");
    }
}
