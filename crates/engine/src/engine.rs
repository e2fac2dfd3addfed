//! The execution engine: cache lookup, evaluation fan-out, stats.

use crate::cache::{CacheConfig, MemoCache};
use crate::evaluator::EvaluatorKind;
use crate::fault::{EvalFailure, FaultEvent, FaultInjector, FaultPlan, FaultPolicy, Quarantine};
use crate::metrics::EngineMetrics;
use crate::screen::SurrogateScreen;
use crate::session::EvaluationSession;
use crate::shared::SharedCache;
use crate::stats::EngineStats;

/// Configuration of an [`ExecutionEngine`].
///
/// The default — serial evaluation, no cache, single-attempt fault
/// policy, no fault injection — reproduces the behavior of the original
/// inline run loops exactly, evaluation for evaluation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineConfig {
    /// Fan-out strategy for each batch.
    pub evaluator: EvaluatorKind,
    /// Memoization cache settings (capacity `0` disables caching).
    pub cache: CacheConfig,
    /// Fault-handling policy applied per candidate by
    /// [`ExecutionEngine::try_evaluate_batch`].
    pub fault: FaultPolicy,
    /// Deterministic fault-injection schedule (test harness; `None`
    /// injects nothing).
    pub inject: Option<FaultPlan>,
}

impl EngineConfig {
    /// Selects the evaluation strategy (default: serial).
    pub fn evaluator(mut self, evaluator: EvaluatorKind) -> Self {
        self.evaluator = evaluator;
        self
    }

    /// Enables memoization with room for `capacity` entries (`0`
    /// disables it).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache.capacity = capacity;
        self
    }

    /// Sets the cache quantization grid (must be positive and finite).
    pub fn cache_grid(mut self, grid: f64) -> Self {
        self.cache = self.cache.grid(grid);
        self
    }

    /// Sets the fault-handling policy used by
    /// [`ExecutionEngine::try_evaluate_batch`].
    pub fn fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// Enables deterministic fault injection with the given plan.
    pub fn inject_faults(mut self, plan: FaultPlan) -> Self {
        self.inject = Some(plan);
        self
    }
}

/// Maps raw genes to the canonical representative the memoization
/// cache keys on (see
/// [`set_cache_canonicalizer`](ExecutionEngine::set_cache_canonicalizer)).
/// A plain `fn` pointer: deterministic by construction and cheap to
/// compare.
pub type CacheCanonicalizer = fn(&[f64]) -> Vec<f64>;

/// Owns candidate evaluation for one optimizer run: consults the
/// memoization cache, fans misses out through the configured evaluator,
/// and accumulates [`EngineStats`].
#[derive(Debug)]
pub struct ExecutionEngine<T> {
    pub(crate) config: EngineConfig,
    pub(crate) cache: MemoCache<T>,
    /// When attached, supersedes the private `cache`: all lookups and
    /// insertions go to the shared store (see
    /// [`attach_shared_cache`](ExecutionEngine::attach_shared_cache)).
    pub(crate) shared: Option<SharedCache<T>>,
    pub(crate) stats: EngineStats,
    // Maps genes to a canonical representative before cache-key
    // quantization, so gene vectors the problem decodes to one design
    // share a cache entry.
    pub(crate) canonicalize: Option<CacheCanonicalizer>,
    // Opt-in surrogate pre-screen applied to cache misses.
    pub(crate) screen: Option<SurrogateScreen<T>>,
    pub(crate) injector: Option<FaultInjector>,
    // Injection totals carried over from a checkpoint: a resumed run's
    // injector restarts its counters at zero, so the restored totals act
    // as a base offset.
    pub(crate) injected_base: crate::fault::InjectionCounts,
    // Resolved fault episodes not yet drained by `take_fault_events`,
    // in batch order. Bounded: see `MAX_PENDING_FAULT_EVENTS`.
    pub(crate) fault_events: Vec<FaultEvent>,
    // Opt-in live metric handles that sessions publish `stats` into.
    // Recording is observation only: it never steers evaluation.
    pub(crate) metrics: Option<EngineMetrics>,
}

/// Cap on buffered [`FaultEvent`]s between drains, so a caller that never
/// drains cannot grow the buffer without bound (counters in
/// [`EngineStats`] remain exact regardless).
const MAX_PENDING_FAULT_EVENTS: usize = 65_536;

/// Buffers a resolved fault episode for the next
/// [`take_fault_events`](ExecutionEngine::take_fault_events) drain,
/// dropping events beyond the pending cap.
pub(crate) fn push_fault_event(events: &mut Vec<FaultEvent>, event: FaultEvent) {
    if events.len() < MAX_PENDING_FAULT_EVENTS {
        events.push(event);
    }
}

impl<T: Clone + Send> ExecutionEngine<T> {
    /// Builds an engine from its configuration.
    pub fn new(config: EngineConfig) -> Self {
        let cache = MemoCache::new(config.cache.clone());
        let injector = config.inject.map(FaultInjector::new);
        ExecutionEngine {
            config,
            cache,
            shared: None,
            stats: EngineStats::default(),
            canonicalize: None,
            screen: None,
            injector,
            injected_base: crate::fault::InjectionCounts::default(),
            fault_events: Vec::new(),
            metrics: None,
        }
    }

    /// Routes all memoization through `shared` instead of the private
    /// per-run cache (which is bypassed entirely while a shared cache is
    /// attached, regardless of the configured private capacity).
    ///
    /// The shared store may answer candidates with values computed by
    /// *other* runs; because cached values are pure functions of the
    /// gene vector this never changes a run's results, only how many
    /// model evaluations it performs. Hits observed through this
    /// engine's lookups are counted in this engine's
    /// [`EngineStats::cache_hits`], so per-run attribution stays exact.
    pub fn attach_shared_cache(&mut self, shared: SharedCache<T>) {
        self.shared = Some(shared);
    }

    /// The shared cache currently attached, if any.
    pub fn shared_cache(&self) -> Option<&SharedCache<T>> {
        self.shared.as_ref()
    }

    /// Installs a canonicalizer applied to genes before cache-key
    /// quantization.
    ///
    /// Problems that decode genes through a coarse discretization (the
    /// drivable-load problem snaps widths to unit fingers, capacitors to
    /// unit caps, …) map many distinct raw gene vectors onto one design;
    /// without canonicalization each raw vector gets its own cache key
    /// and the cache never hits. The canonicalizer must be *exact*: two
    /// gene vectors may share a canonical form only when the problem's
    /// `evaluate` provably returns bit-identical results for both.
    pub fn set_cache_canonicalizer(&mut self, f: CacheCanonicalizer) {
        self.canonicalize = Some(f);
    }

    /// The cache-key canonicalizer currently installed, if any.
    pub fn cache_canonicalizer(&self) -> Option<CacheCanonicalizer> {
        self.canonicalize
    }

    /// Attaches an opt-in surrogate pre-screen: every cache miss is
    /// offered to `screen` first, and candidates it answers skip the
    /// full evaluation entirely. Screened placeholders are counted in
    /// [`EngineStats::screened`] and are never cached.
    pub fn attach_screen(&mut self, screen: SurrogateScreen<T>) {
        self.screen = Some(screen);
    }

    /// The surrogate screen currently attached, if any.
    pub fn screen(&self) -> Option<&SurrogateScreen<T>> {
        self.screen.as_ref()
    }

    /// Attaches a live metric bundle (see
    /// [`EngineMetrics::register`]): each session adds what the
    /// [`EngineStats`] counters gained to the bundle at the end of every
    /// drain and when it closes, and records per-evaluation latency and
    /// batch-size histograms. Recording is atomic and observation-only —
    /// it never touches the RNG, candidate ordering, or results, so an
    /// instrumented run stays bit-identical to a bare one.
    pub fn attach_metrics(&mut self, metrics: EngineMetrics) {
        self.metrics = Some(metrics);
    }

    /// The metric bundle currently attached, if any.
    pub fn metrics(&self) -> Option<&EngineMetrics> {
        self.metrics.as_ref()
    }

    /// Drains the fault episodes resolved since the previous drain
    /// (recovered or quarantined candidates, in batch order). Run loops
    /// call this once per generation to forward the episodes into their
    /// telemetry streams; fatal failures are not buffered here — they
    /// surface as [`EvalFailure`] errors instead.
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.fault_events)
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Replaces the accumulated statistics wholesale — used when a run
    /// resumes from a checkpoint, so counters continue from the values
    /// recorded at kill time.
    pub fn restore_stats(&mut self, stats: EngineStats) {
        self.injected_base = crate::fault::InjectionCounts {
            panics: stats.injected_panics,
            nonfinite: stats.injected_nonfinite,
            delays: stats.injected_delays,
        };
        self.stats = stats;
    }

    /// Consumes the engine, returning its accumulated statistics.
    pub fn into_stats(self) -> EngineStats {
        self.stats
    }
}

impl<T: Clone + Send + Quarantine> ExecutionEngine<T> {
    /// Evaluates a batch of gene vectors, returning results in input
    /// order.
    ///
    /// This is [`try_evaluate_batch`](ExecutionEngine::try_evaluate_batch)
    /// for callers that treat an aborted batch as a bug: the same cache,
    /// screen, fault policy and injection plan apply, and tainted
    /// results are never cached.
    ///
    /// # Panics
    ///
    /// Panics with the [`EvalFailure`] when a candidate exhausts its
    /// retry budget and the configured [`FaultPolicy`] aborts — under
    /// the default single-attempt policy, whenever `eval` panics.
    pub fn evaluate_batch<F>(&mut self, batch: &[Vec<f64>], eval: &F) -> Vec<T>
    where
        F: Fn(&[f64]) -> T + Sync,
    {
        self.try_evaluate_batch(batch, eval)
            .unwrap_or_else(|failure| panic!("{failure}"))
    }

    /// Evaluates a batch of gene vectors under the configured
    /// [`FaultPolicy`] (panics contained, bounded retries, optional
    /// quarantine of non-finite results), with faults injected when the
    /// configuration carries a [`FaultPlan`].
    ///
    /// With caching enabled, previously seen candidates (and duplicates
    /// within the batch) are answered from the cache; only genuinely new
    /// candidates reach `eval`, through the configured evaluator.
    ///
    /// Returns the results in input order, or the first [`EvalFailure`]
    /// (by batch position) when a candidate exhausts its retry budget
    /// and the policy aborts. Fault counters are folded into
    /// [`EngineStats`] in input order, so they are identical under
    /// serial and parallel evaluation. Tainted (non-finite) and
    /// quarantined results are never stored in the memoization cache.
    ///
    /// This is a thin wrapper over the incremental submission API: the
    /// whole batch is submitted to an [`EvaluationSession`] and drained
    /// to a barrier, which gives one-shot semantics (hit/alias
    /// resolution in batch order, fault accounting in batch order,
    /// misses cached in first-occurrence order).
    pub fn try_evaluate_batch<F>(
        &mut self,
        batch: &[Vec<f64>],
        eval: &F,
    ) -> Result<Vec<T>, EvalFailure>
    where
        F: Fn(&[f64]) -> T + Sync,
    {
        self.with_session(eval, |session| {
            for genes in batch {
                session.submit(genes);
            }
            session.drain_all()
        })
    }

    /// Opens an [`EvaluationSession`] over this engine and runs `f`
    /// inside it.
    ///
    /// The session borrows the engine exclusively: stats, cache
    /// contents, and fault events accumulated by the session are visible
    /// on the engine as soon as `f` returns. Under a parallel evaluator
    /// the session spawns its worker pool for the duration of `f`, so
    /// submissions evaluate concurrently with the caller's own work
    /// between drains; see the [`session`](crate::session) module docs
    /// for the full semantics.
    pub fn with_session<F, R>(
        &mut self,
        eval: &F,
        f: impl FnOnce(&mut EvaluationSession<'_, T, F>) -> R,
    ) -> R
    where
        F: Fn(&[f64]) -> T + Sync,
    {
        crate::session::run_session(self, eval, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counted_sum(calls: &AtomicU64) -> impl Fn(&[f64]) -> f64 + Sync + '_ {
        move |genes: &[f64]| {
            calls.fetch_add(1, Ordering::SeqCst);
            genes.iter().sum()
        }
    }

    #[test]
    fn uncached_engine_evaluates_everything() {
        let calls = AtomicU64::new(0);
        let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(EngineConfig::default());
        let batch = vec![vec![1.0], vec![1.0], vec![2.0]];
        let out = engine.evaluate_batch(&batch, &counted_sum(&calls));
        assert_eq!(out, vec![1.0, 1.0, 2.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(engine.stats().candidates, 3);
        assert_eq!(engine.stats().evaluations, 3);
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(engine.stats().batches, 1);
        assert_eq!(engine.stats().max_batch, 3);
    }

    #[test]
    fn cache_serves_repeats_across_batches() {
        let calls = AtomicU64::new(0);
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(16));
        let f = counted_sum(&calls);
        let b1 = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let b2 = vec![vec![3.0, 4.0], vec![5.0, 6.0]];
        assert_eq!(engine.evaluate_batch(&b1, &f), vec![3.0, 7.0]);
        assert_eq!(engine.evaluate_batch(&b2, &f), vec![7.0, 11.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.stats().evaluations, 3);
        assert_eq!(engine.stats().candidates, 4);
        assert!((engine.stats().hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn within_batch_duplicates_evaluate_once() {
        let calls = AtomicU64::new(0);
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(16));
        let batch = vec![vec![1.0], vec![1.0], vec![1.0], vec![2.0]];
        let out = engine.evaluate_batch(&batch, &counted_sum(&calls));
        assert_eq!(out, vec![1.0, 1.0, 1.0, 2.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(engine.stats().cache_hits, 2);
    }

    #[test]
    fn parallel_cached_engine_matches_serial() {
        let serial_cfg = EngineConfig::default().cache_capacity(8);
        let parallel_cfg = serial_cfg.clone().evaluator(EvaluatorKind::Parallel);
        let mut serial: ExecutionEngine<f64> = ExecutionEngine::new(serial_cfg);
        let mut parallel: ExecutionEngine<f64> = ExecutionEngine::new(parallel_cfg);
        let f = |genes: &[f64]| genes.iter().map(|x| x * x).sum::<f64>();
        let batch: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 10) as f64, 0.5]).collect();
        assert_eq!(
            serial.evaluate_batch(&batch, &f),
            parallel.evaluate_batch(&batch, &f)
        );
        assert_eq!(serial.stats().evaluations, parallel.stats().evaluations);
        assert_eq!(serial.stats().cache_hits, parallel.stats().cache_hits);
    }

    #[test]
    fn shared_cache_engine_matches_private_cache_engine() {
        let mut private: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(16));
        let mut shared_a: ExecutionEngine<f64> = ExecutionEngine::new(EngineConfig::default());
        let mut shared_b: ExecutionEngine<f64> = ExecutionEngine::new(EngineConfig::default());
        let store = crate::SharedCache::with_capacity(16);
        shared_a.attach_shared_cache(store.clone());
        shared_b.attach_shared_cache(store.clone());

        let f = |genes: &[f64]| genes.iter().map(|x| x * 3.0).sum::<f64>();
        let batch: Vec<Vec<f64>> = (0..12).map(|i| vec![(i % 4) as f64]).collect();

        // Results are identical whether the cache is private or shared.
        let expect = private.evaluate_batch(&batch, &f);
        assert_eq!(shared_a.evaluate_batch(&batch, &f), expect);
        // A second engine on the same store is answered entirely from it.
        assert_eq!(shared_b.evaluate_batch(&batch, &f), expect);
        assert_eq!(shared_b.stats().evaluations, 0);
        assert_eq!(shared_b.stats().cache_hits, batch.len() as u64);
        // Per-run attribution: each engine counted only its own hits.
        assert_eq!(shared_a.stats().cache_hits, private.stats().cache_hits);
        // Global counters: shared_a ran against an empty store, so every
        // one of its lookups missed (its within-batch aliases were
        // answered by the pending map after the store miss); shared_b's
        // lookups all hit.
        assert_eq!(store.stats().inserts, 4);
        assert_eq!(store.stats().misses, batch.len() as u64);
        assert_eq!(store.stats().hits, shared_b.stats().cache_hits);
    }

    #[test]
    fn shared_cache_supersedes_private_capacity_zero() {
        // A shared cache activates memoization even when the private
        // cache is disabled (capacity 0 — the default).
        let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(EngineConfig::default());
        engine.attach_shared_cache(crate::SharedCache::with_capacity(8));
        let calls = AtomicU64::new(0);
        let batch = vec![vec![1.0], vec![1.0], vec![1.0]];
        let out = engine.evaluate_batch(&batch, &counted_sum(&calls));
        assert_eq!(out, vec![1.0, 1.0, 1.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(engine.stats().cache_hits, 2);
        assert_eq!(engine.shared_cache().unwrap().len(), 1);
    }

    #[test]
    fn config_builders_compose() {
        let cfg = EngineConfig::default()
            .evaluator(EvaluatorKind::ParallelWith(2))
            .cache_capacity(64)
            .cache_grid(1e-6)
            .fault_policy(crate::FaultPolicy::tolerant(3))
            .inject_faults(crate::FaultPlan::seeded(9).panics(0.1));
        assert_eq!(cfg.evaluator, EvaluatorKind::ParallelWith(2));
        assert_eq!(cfg.cache.capacity, 64);
        assert_eq!(cfg.cache.grid, 1e-6);
        assert_eq!(cfg.fault.retry.max_attempts, 3);
        assert_eq!(cfg.inject.unwrap().panic_rate, 0.1);
    }

    #[test]
    fn try_path_matches_plain_path_without_faults() {
        let mut plain: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(8));
        let mut tried: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(8));
        let f = |genes: &[f64]| genes.iter().sum::<f64>();
        let batch = vec![vec![1.0], vec![2.0], vec![1.0]];
        let a = plain.evaluate_batch(&batch, &f);
        let b = tried.try_evaluate_batch(&batch, &f).unwrap();
        assert_eq!(a, b);
        assert_eq!(plain.stats().evaluations, tried.stats().evaluations);
        assert_eq!(plain.stats().cache_hits, tried.stats().cache_hits);
        assert_eq!(tried.stats().failures, 0);
    }

    #[test]
    fn cache_never_stores_tainted_results() {
        let calls = AtomicU64::new(0);
        // Candidate [1.0] always evaluates to NaN; no quarantine policy,
        // so it flows through as a value — but must never be cached.
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(16));
        let f = |genes: &[f64]| {
            calls.fetch_add(1, Ordering::SeqCst);
            if genes[0] == 1.0 {
                f64::NAN
            } else {
                genes[0]
            }
        };
        let batch = vec![vec![1.0], vec![2.0]];
        engine.try_evaluate_batch(&batch, &f).unwrap();
        engine.try_evaluate_batch(&batch, &f).unwrap();
        // [2.0] cached after the first batch; [1.0] re-evaluated.
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        // The panicking form keeps the guarantee: [1.0] is evaluated
        // again on every call, [2.0] stays a hit.
        for expected_calls in [4, 5] {
            let out = engine.evaluate_batch(&batch, &f);
            assert!(out[0].is_nan());
            assert_eq!(out[1], 2.0);
            assert_eq!(calls.load(Ordering::SeqCst), expected_calls);
        }
    }

    #[test]
    fn injected_faults_recover_and_are_counted() {
        let plan = crate::FaultPlan::seeded(13).panics(0.2).nonfinite(0.2);
        let cfg = EngineConfig::default()
            .fault_policy(crate::FaultPolicy::tolerant(3))
            .inject_faults(plan);
        let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(cfg.clone());
        let mut clean: ExecutionEngine<f64> = ExecutionEngine::new(EngineConfig::default());
        let f = |genes: &[f64]| genes[0] * 2.0;
        let batch: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let faulty = engine.try_evaluate_batch(&batch, &f).unwrap();
        let reference = clean.try_evaluate_batch(&batch, &f).unwrap();
        assert_eq!(faulty, reference);
        let s = engine.stats();
        assert!(s.failures > 0, "plan should schedule some faults");
        assert_eq!(s.failures, s.injected_panics + s.injected_nonfinite);
        assert_eq!(s.retries, s.failures);
        assert_eq!(s.recovered, s.failures);
        assert_eq!(s.quarantined, 0);

        // The panicking form runs under the same policy and plan.
        let mut plain: ExecutionEngine<f64> = ExecutionEngine::new(cfg);
        assert_eq!(plain.evaluate_batch(&batch, &f), reference);
        let s = plain.stats();
        assert!(s.failures > 0, "plan should schedule some faults");
        assert_eq!(s.failures, s.injected_panics + s.injected_nonfinite);
        assert_eq!(s.recovered, s.failures);
    }

    #[test]
    fn fault_events_record_resolved_episodes_in_batch_order() {
        let plan = crate::FaultPlan::seeded(13).panics(0.2).nonfinite(0.2);
        let cfg = EngineConfig::default()
            .fault_policy(crate::FaultPolicy::tolerant(3))
            .inject_faults(plan);
        let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(cfg);
        let f = |genes: &[f64]| genes[0] * 2.0;
        let batch: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        engine.try_evaluate_batch(&batch, &f).unwrap();
        let events = engine.take_fault_events();
        assert_eq!(events.len() as u64, engine.stats().recovered);
        assert!(!events.is_empty(), "plan should schedule some faults");
        for w in events.windows(2) {
            assert!(w[0].index <= w[1].index, "events must be in batch order");
        }
        for e in &events {
            assert_eq!(e.resolution, crate::FaultResolution::Recovered);
            assert!(e.failures > 0);
        }
        // Drained: a second take returns nothing.
        assert!(engine.take_fault_events().is_empty());
    }

    #[test]
    fn abort_policy_surfaces_typed_failure() {
        let plan = crate::FaultPlan::seeded(1).panics(1.0);
        let cfg = EngineConfig::default().inject_faults(plan);
        let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(cfg);
        let err = engine
            .try_evaluate_batch(&[vec![0.5]], &|g: &[f64]| g[0])
            .unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.attempts, 1);
        assert_eq!(err.kind, crate::FaultKind::Panic);
    }

    #[test]
    fn screen_answers_obvious_losers_and_never_caches_them() {
        let calls = AtomicU64::new(0);
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(16));
        engine.attach_screen(crate::SurrogateScreen::new("negatives", |g: &[f64]| {
            (g[0] < 0.0).then_some(-999.0)
        }));
        let eval = counted_sum(&calls);
        let batch = vec![vec![-1.0], vec![2.0], vec![3.0]];
        let out = engine.try_evaluate_batch(&batch, &eval).unwrap();
        assert_eq!(out, vec![-999.0, 2.0, 3.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let s = engine.stats();
        assert_eq!(s.screened, 1);
        assert_eq!(s.candidates, s.evaluations + s.cache_hits + s.screened);
        // Screened placeholders are never cached: the same loser is
        // screened again (not served as a hit) on the next batch.
        let out2 = engine.try_evaluate_batch(&batch, &eval).unwrap();
        assert_eq!(out2, vec![-999.0, 2.0, 3.0]);
        let s = engine.stats();
        assert_eq!(s.screened, 2);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.candidates, s.evaluations + s.cache_hits + s.screened);
    }

    #[test]
    fn never_screen_is_a_no_op() {
        let mut screened: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(8));
        screened.attach_screen(crate::SurrogateScreen::new("never", |_: &[f64]| None));
        let mut plain: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(8));
        let eval = |genes: &[f64]| genes[0] * 3.0;
        let batch: Vec<Vec<f64>> = (0..10).map(|i| vec![(i % 4) as f64]).collect();
        assert_eq!(
            screened.try_evaluate_batch(&batch, &eval).unwrap(),
            plain.try_evaluate_batch(&batch, &eval).unwrap()
        );
        assert_eq!(screened.stats().screened, 0);
        assert_eq!(screened.stats().evaluations, plain.stats().evaluations);
    }

    #[test]
    fn canonicalizer_collapses_equivalent_genes_to_one_entry() {
        fn snap(genes: &[f64]) -> Vec<f64> {
            genes.iter().map(|g| g.round()).collect()
        }
        let calls = AtomicU64::new(0);
        // The model itself also rounds, so canonically-equal genes have
        // bit-identical values and may share a cache entry.
        let eval = |genes: &[f64]| {
            calls.fetch_add(1, Ordering::SeqCst);
            genes[0].round() * 10.0
        };
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(16));
        engine.set_cache_canonicalizer(snap);
        let batch = vec![vec![1.02], vec![0.97], vec![2.2]];
        let out = engine.evaluate_batch(&batch, &eval);
        assert_eq!(out, vec![10.0, 10.0, 20.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(engine.stats().cache_hits, 1);
        assert!(engine.cache_canonicalizer().is_some());
    }

    #[test]
    fn try_path_serial_parallel_stats_match_under_injection() {
        let plan = crate::FaultPlan::seeded(21).panics(0.15).nonfinite(0.15);
        let base = EngineConfig::default()
            .fault_policy(crate::FaultPolicy::tolerant(4))
            .inject_faults(plan);
        let mut serial: ExecutionEngine<f64> = ExecutionEngine::new(base.clone());
        let mut parallel: ExecutionEngine<f64> =
            ExecutionEngine::new(base.evaluator(EvaluatorKind::ParallelWith(4)));
        let f = |genes: &[f64]| genes[0] + 1.0;
        let batch: Vec<Vec<f64>> = (0..48).map(|i| vec![i as f64 * 0.7]).collect();
        let a = serial.try_evaluate_batch(&batch, &f).unwrap();
        let b = parallel.try_evaluate_batch(&batch, &f).unwrap();
        assert_eq!(a, b);
        assert_eq!(serial.stats().failures, parallel.stats().failures);
        assert_eq!(serial.stats().retries, parallel.stats().retries);
        assert_eq!(serial.stats().recovered, parallel.stats().recovered);
        assert_eq!(
            serial.stats().injected_panics,
            parallel.stats().injected_panics
        );
    }
}
