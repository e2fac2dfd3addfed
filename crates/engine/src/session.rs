//! Incremental submission/completion evaluation: the engine API behind
//! steady-state (asynchronous) evolution.
//!
//! A generational loop hands the engine a whole batch and blocks on the
//! barrier at its end. An [`EvaluationSession`] decomposes that barrier:
//! candidates are [`submit`](EvaluationSession::submit)ted one at a time
//! as selection produces them, evaluations proceed out of order on a
//! worker pool, and [`drain`](EvaluationSession::drain) hands completed
//! results back **in submission order** — a deterministic merge order
//! that makes seeded steady-state runs bit-identical whether the session
//! runs serial or over any number of workers.
//!
//! The one-shot batch calls are submit-all/drain-all over a session, so
//! these are the semantics of every evaluation:
//!
//! * **Cache/canonicalizer**: each submission is resolved against the
//!   active memoization layer at submit time, on the control thread, in
//!   submission order. A duplicate of an earlier *undrained* submission
//!   aliases that submission's future result (counted as a cache hit),
//!   exactly like within-batch duplicates in
//!   [`try_evaluate_batch`](crate::ExecutionEngine::try_evaluate_batch).
//!   Completed results enter the cache at drain time, in submission
//!   order; tainted and screened values are never cached.
//! * **Screen**: cache-miss submissions are offered to the surrogate
//!   screen at submit time; answered candidates never reach the model
//!   and count in [`EngineStats::screened`](crate::EngineStats).
//! * **Faults**: every dispatched candidate runs under the configured
//!   [`FaultPolicy`] (with injection when a plan is armed). Fault
//!   counters and [`FaultEvent`]s fold into [`EngineStats`] at drain
//!   time in submission order, so they are identical under serial and
//!   parallel execution; the first exhausted candidate (by submission
//!   index) surfaces as the drain's [`EvalFailure`]. Both carry the
//!   candidate's position within its drain, which for a one-shot batch
//!   is its batch position.
//! * **Accounting**: `candidates == evaluations + cache_hits + screened`
//!   holds at every drain boundary. Each drain counts one batch;
//!   `max_batch` tracks the largest drain. [`EngineStats`] is the only
//!   record of the counters: an attached [`EngineMetrics`] bundle
//!   receives what they gained at the end of every drain and when the
//!   session closes, so it equals them at each of those boundaries.
//!
//! Under the serial evaluator (or a parallel one that resolves to a
//! single worker), evaluation is deferred to the drain, which runs each
//! queued miss on the calling thread in submission order, through the
//! same guarded call a worker makes. Under a parallel evaluator, misses
//! are dispatched to scoped worker threads at submit time and overlap
//! with selection — the steady-state payoff.
//!
//! A session that returns an error from a drain is poisoned: the failed
//! drain's submissions are lost and further use is unsupported (a
//! one-shot batch call loses its whole batch in the same way).

use crate::cache::{Key, MemoCache, WordHash};
use crate::engine::{push_fault_event, CacheCanonicalizer, ExecutionEngine};
use crate::evaluator::EvaluatorKind;
use crate::fault::{
    EvalFailure, EvalOutcome, FaultEvent, FaultInjector, FaultPolicy, FaultResolution,
    InjectionCounts, Quarantine,
};
use crate::metrics::EngineMetrics;
use crate::screen::SurrogateScreen;
use crate::shared::SharedCache;
use crate::stats::EngineStats;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;
use std::time::Instant;

/// Lifecycle of one submission inside a session.
enum Slot<T> {
    /// Value known at submit time: cache hit, screened placeholder, or a
    /// completion restored from a checkpoint. Retained after drain (as
    /// [`Slot::Done`]) while a later-drained alias may read it.
    Ready(T),
    /// Duplicate of the earlier, still-pending submission at this index.
    Alias(usize),
    /// Dispatched to the worker pool; its outcome has not arrived yet.
    InFlight,
    /// Buffered for drain-time evaluation (no worker pool).
    Queued(Vec<f64>),
    /// Outcome available but not yet folded into stats.
    Arrived(EvalOutcome<T>),
    /// Drained. `Some` keeps the value while an undrained alias reads
    /// it; `None` once none does, or for a candidate lost to a fatal
    /// failure (the session is poisoned).
    Done(Option<T>),
}

/// Per-submission record: lifecycle slot, the cache key a completed
/// miss should be stored under (`None` for hits, aliases, screened
/// candidates, and cache-disabled sessions), and how many undrained
/// aliases read its value.
struct Entry<T> {
    slot: Slot<T>,
    key: Option<Key>,
    readers: usize,
}

impl<T> Entry<T> {
    fn new(slot: Slot<T>, key: Option<Key>) -> Self {
        Entry {
            slot,
            key,
            readers: 0,
        }
    }
}

/// The cache layer borrowed from the engine for the session's lifetime.
struct CacheView<'a, T> {
    shared: Option<&'a SharedCache<T>>,
    private: &'a mut MemoCache<T>,
    canonicalize: Option<CacheCanonicalizer>,
    enabled: bool,
}

impl<T: Clone> CacheView<'_, T> {
    fn key(&self, genes: &[f64]) -> Key {
        let canonical;
        let genes = match self.canonicalize {
            Some(f) => {
                canonical = f(genes);
                &canonical[..]
            }
            None => genes,
        };
        match self.shared {
            Some(shared) => shared.config().key(genes),
            None => self.private.config().key(genes),
        }
    }

    fn get(&mut self, key: &Key) -> Option<T> {
        match self.shared {
            Some(shared) => shared.get_key(key),
            None => self.private.get_key(key),
        }
    }

    fn put(&mut self, key: Key, value: T) {
        match self.shared {
            Some(shared) => shared.insert_key(key, value),
            None => self.private.insert_key(key, value),
        }
    }
}

/// Channels linking a session to its scoped worker pool.
struct WorkerLink<T> {
    jobs: Sender<(usize, Vec<f64>)>,
    done: Receiver<(usize, EvalOutcome<T>)>,
}

/// How dispatched candidates are evaluated.
enum Backend<T> {
    /// No worker pool: drain-time guarded evaluation on the calling
    /// thread, in submission order.
    Inline,
    /// Live worker pool fed at submit time.
    Workers(WorkerLink<T>),
}

/// An open submission/completion session on an
/// [`ExecutionEngine`] — see the module docs.
/// Created by [`ExecutionEngine::with_session`]; borrows the engine
/// exclusively until the callback returns.
pub struct EvaluationSession<'a, T, F> {
    policy: FaultPolicy,
    stats: &'a mut EngineStats,
    fault_events: &'a mut Vec<FaultEvent>,
    injector: Option<&'a FaultInjector>,
    injected_base: InjectionCounts,
    screen: Option<SurrogateScreen<T>>,
    cache: CacheView<'a, T>,
    eval: &'a F,
    backend: Backend<T>,
    /// Entries from submission index `base` on. Drained entries are
    /// dropped from the front once no undrained alias can read them, so
    /// a whole-run session holds about one window, not every value.
    entries: VecDeque<Entry<T>>,
    base: usize,
    /// Cache key → submission index of the pending miss that owns it.
    /// The key is the one its entry holds, sharing its allocation.
    pending: HashMap<Key, usize, WordHash>,
    drained: usize,
    /// Live metric handles (observation only; never steers evaluation).
    metrics: Option<EngineMetrics>,
    /// The stats as last added to `metrics`.
    published: EngineStats,
}

/// One candidate evaluation under the fault policy (and the injector,
/// when armed) — the call every backend makes.
fn guarded_eval<T, F>(
    policy: FaultPolicy,
    injector: Option<&FaultInjector>,
    eval: &F,
    genes: &[f64],
) -> EvalOutcome<T>
where
    F: Fn(&[f64]) -> T + Sync,
    T: Quarantine,
{
    match injector {
        Some(inj) => policy.execute(&|g: &[f64]| inj.invoke(eval, g), genes),
        None => policy.execute(eval, genes),
    }
}

impl<'a, T, F> EvaluationSession<'a, T, F>
where
    T: Clone + Send + Quarantine,
    F: Fn(&[f64]) -> T + Sync,
{
    /// Total submissions so far (including drained ones).
    pub fn submitted(&self) -> usize {
        self.base + self.entries.len()
    }

    /// The engine's statistics, live as of the last submit or drain
    /// (the session mutates the engine's counters in place).
    pub fn stats(&self) -> &EngineStats {
        self.stats
    }

    /// Drains the fault episodes folded so far, exactly like
    /// [`ExecutionEngine::take_fault_events`](crate::ExecutionEngine::take_fault_events)
    /// — for callers that need to forward events mid-session, while the
    /// engine itself is exclusively borrowed.
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(self.fault_events)
    }

    /// Submissions already handed back by drains.
    pub fn drained(&self) -> usize {
        self.drained
    }

    /// Submissions not yet drained.
    pub fn in_flight(&self) -> usize {
        self.submitted() - self.drained
    }

    /// Submits one candidate and returns its submission index.
    ///
    /// The candidate is resolved against the cache (and offered to the
    /// screen) immediately, on the calling thread; genuinely new
    /// candidates are dispatched to the worker pool (parallel) or
    /// buffered for the next drain (serial). Its result is returned by
    /// the drain that covers this index.
    pub fn submit(&mut self, genes: &[f64]) -> usize {
        let idx = self.submitted();
        self.stats.candidates += 1;
        if self.cache.enabled {
            let key = self.cache.key(genes);
            if let Some(value) = self.cache.get(&key) {
                self.stats.cache_hits += 1;
                self.entries.push_back(Entry::new(Slot::Ready(value), None));
                return idx;
            }
            if let Some(&m) = self.pending.get(&key) {
                self.stats.cache_hits += 1;
                self.entries[m - self.base].readers += 1;
                self.entries.push_back(Entry::new(Slot::Alias(m), None));
                return idx;
            }
            // A genuinely new candidate: later duplicates alias it even
            // when the screen answers it (duplicates are resolved before
            // screening).
            self.pending.insert(key.clone(), idx);
            if self.screen_submission(genes) {
                return idx;
            }
            self.dispatch(idx, genes, Some(key));
        } else {
            if self.screen_submission(genes) {
                return idx;
            }
            self.dispatch(idx, genes, None);
        }
        idx
    }

    /// Restores a completion from a checkpoint: the value occupies the
    /// next submission index and is handed back by the covering drain,
    /// with no stats impact (the original submission was already
    /// accounted when it executed) and no cache insertion. Returns the
    /// submission index.
    pub fn prime(&mut self, value: T) -> usize {
        let idx = self.submitted();
        self.entries.push_back(Entry::new(Slot::Ready(value), None));
        idx
    }

    /// Offers `genes` to the screen; on an answer, records the screened
    /// placeholder and returns `true`.
    fn screen_submission(&mut self, genes: &[f64]) -> bool {
        if let Some(screen) = &self.screen {
            if let Some(value) = screen.screen(genes) {
                self.stats.screened += 1;
                self.entries.push_back(Entry::new(Slot::Ready(value), None));
                return true;
            }
        }
        false
    }

    /// Routes a cache-miss submission to the backend.
    fn dispatch(&mut self, idx: usize, genes: &[f64], key: Option<Key>) {
        self.stats.evaluations += 1;
        let slot = match &self.backend {
            Backend::Workers(link) => {
                link.jobs
                    .send((idx, genes.to_vec()))
                    .expect("session worker pool hung up");
                Slot::InFlight
            }
            Backend::Inline => Slot::Queued(genes.to_vec()),
        };
        self.entries.push_back(Entry::new(slot, key));
    }

    /// Drains every outstanding submission (a full barrier).
    ///
    /// # Errors
    ///
    /// See [`drain`](EvaluationSession::drain).
    pub fn drain_all(&mut self) -> Result<Vec<T>, EvalFailure> {
        self.drain(self.in_flight())
    }

    /// Drains the oldest `count` outstanding submissions (clamped to the
    /// number outstanding), blocking until their results are available,
    /// and returns their values **in submission order** regardless of
    /// completion interleaving. Counts one batch in [`EngineStats`].
    ///
    /// # Errors
    ///
    /// Returns the first [`EvalFailure`] (by submission index, reported
    /// as its position within this drain) when a drained candidate
    /// exhausted its retry budget under an aborting policy. All drained
    /// outcomes still fold into the stats, but no value from this drain
    /// enters the cache and the session is poisoned.
    pub fn drain(&mut self, count: usize) -> Result<Vec<T>, EvalFailure> {
        let count = count.min(self.in_flight());
        let lo = self.drained;
        let hi = lo + count;
        // Only undrained misses alias; a drained one is the cache's to
        // keep or drop (capacity, taint), or the session would become a
        // second, unbounded cache.
        self.pending.retain(|_, owner| *owner >= hi);
        self.stats.batches += 1;
        self.stats.max_batch = self.stats.max_batch.max(count as u64);
        if let Some(m) = &self.metrics {
            #[allow(clippy::cast_precision_loss)]
            m.batch_size.observe(count as f64);
        }

        match &self.backend {
            Backend::Workers(_) => self.await_arrivals(lo, hi),
            Backend::Inline => self.evaluate_queued(lo, hi),
        }

        // Fold arrived outcomes into the stats in submission order. The
        // value (or poison marker) replaces the outcome in place.
        let base = self.base;
        let mut first_failure: Option<EvalFailure> = None;
        for i in lo..hi {
            let entry = &mut self.entries[i - base];
            if matches!(entry.slot, Slot::Arrived(_)) {
                let Slot::Arrived(outcome) = std::mem::replace(&mut entry.slot, Slot::Done(None))
                else {
                    unreachable!()
                };
                let value = fold_outcome(
                    self.stats,
                    self.fault_events,
                    i - lo,
                    outcome,
                    &mut first_failure,
                );
                self.entries[i - base].slot = Slot::Done(value);
            }
        }
        refresh_injection_stats(self.stats, self.injector, self.injected_base);
        if let Some(failure) = first_failure {
            self.drained = hi;
            self.publish();
            return Err(failure);
        }

        // Success: store completed misses in the cache and emit values,
        // both in submission order (misses enter the cache in
        // first-occurrence order). A miss's key moves into the cache and
        // its value is cloned once, into the cache; a value moves into
        // the output unless an undrained alias still reads it.
        let mut out = Vec::with_capacity(count);
        for i in lo..hi {
            let entry = &mut self.entries[i - base];
            let value = match std::mem::replace(&mut entry.slot, Slot::Done(None)) {
                Slot::Ready(v) => v,
                Slot::Done(Some(v)) => {
                    if let Some(key) = entry.key.take() {
                        if !v.is_tainted() {
                            self.cache.put(key, v.clone());
                        }
                    }
                    v
                }
                Slot::Alias(m) => {
                    let target = &mut self.entries[m - base];
                    target.readers -= 1;
                    let last = target.readers == 0;
                    let Slot::Done(value) = &mut target.slot else {
                        unreachable!("an alias always drains after its target")
                    };
                    if last { value.take() } else { value.clone() }
                        .expect("an alias's target keeps its value until its last alias drains")
                }
                _ => unreachable!("every drained slot is ready, aliased, or arrived"),
            };
            let entry = &mut self.entries[i - base];
            if entry.readers > 0 {
                entry.slot = Slot::Done(Some(value.clone()));
            }
            out.push(value);
        }
        self.drained = hi;
        self.forget_drained();
        self.publish();
        Ok(out)
    }

    /// Adds what the seven engine counters gained since the last call to
    /// the attached metric bundle: the one place they reach the registry.
    fn publish(&mut self) {
        let Some(m) = &self.metrics else {
            return;
        };
        let gained = self.stats.since(&self.published);
        m.candidates.add(gained.candidates);
        m.evaluations.add(gained.evaluations);
        m.cache_hits.add(gained.cache_hits);
        m.screened.add(gained.screened);
        m.fault_retries.add(gained.retries);
        m.fault_recovered.add(gained.recovered);
        m.fault_quarantined.add(gained.quarantined);
        self.published = self.stats.clone();
    }

    /// Drops drained entries from the front, keeping those that an
    /// undrained alias will still read.
    fn forget_drained(&mut self) {
        let undrained = self.drained - self.base;
        let floor = self
            .entries
            .range(undrained..)
            .filter_map(|e| match e.slot {
                Slot::Alias(m) => Some(m),
                _ => None,
            })
            .fold(self.drained, usize::min);
        self.entries.drain(..floor - self.base);
        self.base = floor;
    }

    /// Blocks until every in-flight submission in `[lo, hi)` has arrived
    /// from the worker pool (arrivals outside the range are stored too).
    fn await_arrivals(&mut self, lo: usize, hi: usize) {
        let Backend::Workers(link) = &self.backend else {
            unreachable!()
        };
        let base = self.base;
        let mut waiting = (lo..hi)
            .filter(|&i| matches!(self.entries[i - base].slot, Slot::InFlight))
            .count();
        let t0 = Instant::now();
        while waiting > 0 {
            let (idx, outcome) = link
                .done
                .recv()
                .expect("session worker pool died with work outstanding");
            if (lo..hi).contains(&idx) {
                waiting -= 1;
            }
            self.entries[idx - base].slot = Slot::Arrived(outcome);
        }
        self.stats.eval_time += t0.elapsed();
    }

    /// Evaluates the queued submissions in `[lo, hi)` on the calling
    /// thread, in submission order, each through the guarded call and
    /// timed on its own when metrics are attached (as the workers do).
    fn evaluate_queued(&mut self, lo: usize, hi: usize) {
        let t0 = Instant::now();
        for i in lo..hi {
            let Slot::Queued(genes) = &self.entries[i - self.base].slot else {
                continue;
            };
            let t = self.metrics.as_ref().map(|_| Instant::now());
            let outcome = guarded_eval(self.policy, self.injector, self.eval, genes);
            if let (Some(m), Some(t)) = (&self.metrics, t) {
                m.eval_latency.observe_duration(t.elapsed());
            }
            self.entries[i - self.base].slot = Slot::Arrived(outcome);
        }
        self.stats.eval_time += t0.elapsed();
    }
}

/// Folds one outcome into the stats and returns its value, recording
/// the first failure.
fn fold_outcome<T>(
    stats: &mut EngineStats,
    events: &mut Vec<FaultEvent>,
    index: usize,
    outcome: EvalOutcome<T>,
    first_failure: &mut Option<EvalFailure>,
) -> Option<T> {
    let retries = outcome.retries() as u64;
    match outcome {
        EvalOutcome::Ok(value) => Some(value),
        EvalOutcome::Recovered {
            value,
            failures,
            backoff,
            kind,
        } => {
            stats.failures += failures as u64;
            stats.retries += retries;
            stats.recovered += 1;
            stats.backoff_time += backoff;
            push_fault_event(
                events,
                FaultEvent {
                    index,
                    kind,
                    failures,
                    resolution: FaultResolution::Recovered,
                },
            );
            Some(value)
        }
        EvalOutcome::Quarantined {
            value,
            failures,
            backoff,
            kind,
        } => {
            stats.failures += failures as u64;
            stats.retries += retries;
            stats.quarantined += 1;
            stats.backoff_time += backoff;
            push_fault_event(
                events,
                FaultEvent {
                    index,
                    kind,
                    failures,
                    resolution: FaultResolution::Quarantined,
                },
            );
            Some(value)
        }
        EvalOutcome::Failed(mut failure) => {
            stats.failures += failure.attempts as u64;
            stats.retries += retries;
            stats.backoff_time += failure.backoff;
            if first_failure.is_none() {
                failure.index = index;
                *first_failure = Some(failure);
            }
            None
        }
    }
}

/// Copies the injector's running totals into the stats block (on top of
/// any totals restored from a checkpoint).
pub(crate) fn refresh_injection_stats(
    stats: &mut EngineStats,
    injector: Option<&FaultInjector>,
    base: InjectionCounts,
) {
    if let Some(injector) = injector {
        let counts = injector.counts();
        stats.injected_panics = base.panics + counts.panics;
        stats.injected_nonfinite = base.nonfinite + counts.nonfinite;
        stats.injected_delays = base.delays + counts.delays;
    }
}

/// Number of pool workers a session opens for the configured evaluator
/// (`0` means no pool: queued candidates evaluate at drain time).
fn worker_count(kind: EvaluatorKind) -> usize {
    let n = match kind {
        EvaluatorKind::Serial => return 0,
        EvaluatorKind::Parallel | EvaluatorKind::ParallelWith(0) => {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
        EvaluatorKind::ParallelWith(n) => n,
    };
    if n <= 1 {
        0
    } else {
        n
    }
}

/// Opens a session over `engine`'s borrowed internals, spawning the
/// scoped worker pool when the evaluator is parallel, runs `f`, and
/// closes the session by publishing the counters its last submissions
/// added (a session that `f` unwinds keeps what its drains published).
pub(crate) fn run_session<T, F, R>(
    engine: &mut ExecutionEngine<T>,
    eval: &F,
    f: impl FnOnce(&mut EvaluationSession<'_, T, F>) -> R,
) -> R
where
    T: Clone + Send + Quarantine,
    F: Fn(&[f64]) -> T + Sync,
{
    let ExecutionEngine {
        config,
        cache,
        shared,
        stats,
        canonicalize,
        screen,
        injector,
        injected_base,
        fault_events,
        metrics,
    } = engine;
    let policy = config.fault;
    let injector = injector.as_ref();
    let injected_base = *injected_base;
    let metrics = metrics.clone();
    let published = stats.clone();
    let cache_view = CacheView {
        enabled: shared.is_some() || config.cache.capacity > 0,
        shared: shared.as_ref(),
        private: cache,
        canonicalize: *canonicalize,
    };
    let workers = worker_count(config.evaluator);
    if workers == 0 {
        let mut session = EvaluationSession {
            policy,
            stats,
            fault_events,
            injector,
            injected_base,
            screen: screen.clone(),
            cache: cache_view,
            eval,
            backend: Backend::Inline,
            entries: VecDeque::new(),
            base: 0,
            pending: HashMap::default(),
            drained: 0,
            metrics,
            published,
        };
        let result = f(&mut session);
        session.publish();
        return result;
    }
    let (job_tx, job_rx) = std::sync::mpsc::channel::<(usize, Vec<f64>)>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<(usize, EvalOutcome<T>)>();
    let job_rx = Mutex::new(job_rx);
    // Workers time each evaluation individually, like the inline drain.
    let eval_latency = metrics.as_ref().map(|m| m.eval_latency.clone());
    std::thread::scope(|scope| {
        let job_rx = &job_rx;
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let eval_latency = eval_latency.clone();
            scope.spawn(move || loop {
                // Take one job at a time so slow candidates do not block
                // fast ones queued behind them on the same worker.
                let job = job_rx.lock().expect("session job queue poisoned").recv();
                match job {
                    Ok((idx, genes)) => {
                        let t0 = eval_latency.as_ref().map(|_| Instant::now());
                        let outcome = guarded_eval(policy, injector, eval, &genes);
                        if let (Some(h), Some(t0)) = (&eval_latency, t0) {
                            h.observe_duration(t0.elapsed());
                        }
                        // The session may already be gone (undrained
                        // submissions at teardown); that is not an error.
                        if done_tx.send((idx, outcome)).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            });
        }
        drop(done_tx);
        let mut session = EvaluationSession {
            policy,
            stats,
            fault_events,
            injector,
            injected_base,
            screen: screen.clone(),
            cache: cache_view,
            eval,
            backend: Backend::Workers(WorkerLink {
                jobs: job_tx,
                done: done_rx,
            }),
            entries: VecDeque::new(),
            base: 0,
            pending: HashMap::default(),
            drained: 0,
            metrics,
            published,
        };
        let result = f(&mut session);
        session.publish();
        // Dropping the session closes the job channel; workers drain any
        // leftover jobs and exit, then the scope joins them.
        drop(session);
        result
    })
}

#[cfg(test)]
mod tests {
    use crate::{
        EngineConfig, EngineMetrics, EvaluatorKind, ExecutionEngine, FaultPlan, FaultPolicy,
        MetricsRegistry, SurrogateScreen,
    };
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scalar(genes: &[f64]) -> f64 {
        genes.iter().map(|x| x * 3.0 + 1.0).sum()
    }

    #[test]
    fn incremental_submit_drain_matches_one_shot_batch() {
        let batch: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 7) as f64, 0.25]).collect();
        let mut one_shot: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(32));
        let expect = one_shot.try_evaluate_batch(&batch, &scalar).unwrap();

        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(32));
        let got = engine.with_session(&scalar, |session| {
            let mut got = Vec::new();
            for (i, genes) in batch.iter().enumerate() {
                session.submit(genes);
                // Drain in ragged quanta while submissions continue.
                if i % 3 == 2 {
                    got.extend(session.drain(2).unwrap());
                }
            }
            got.extend(session.drain_all().unwrap());
            got
        });
        assert_eq!(got, expect);
        assert_eq!(engine.stats().candidates, one_shot.stats().candidates);
        assert_eq!(engine.stats().evaluations, one_shot.stats().evaluations);
        assert_eq!(engine.stats().cache_hits, one_shot.stats().cache_hits);
    }

    #[test]
    fn drain_order_is_submission_order_across_worker_counts() {
        let batch: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 * 0.3]).collect();
        let mut reference: Option<Vec<f64>> = None;
        for kind in [
            EvaluatorKind::Serial,
            EvaluatorKind::ParallelWith(2),
            EvaluatorKind::ParallelWith(4),
        ] {
            let mut engine: ExecutionEngine<f64> =
                ExecutionEngine::new(EngineConfig::default().evaluator(kind));
            let out = engine.with_session(&scalar, |session| {
                for genes in &batch {
                    session.submit(genes);
                }
                let mut out = session.drain(10).unwrap();
                out.extend(session.drain_all().unwrap());
                out
            });
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "worker count changed the merge order"),
            }
        }
    }

    #[test]
    fn aliases_resolve_across_drain_boundaries() {
        let calls = AtomicU64::new(0);
        let eval = |genes: &[f64]| {
            calls.fetch_add(1, Ordering::SeqCst);
            genes[0] * 2.0
        };
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(16));
        let out = engine.with_session(&eval, |session| {
            session.submit(&[1.0]); // miss
            let first = session.drain_all().unwrap();
            session.submit(&[1.0]); // cache hit
            session.submit(&[2.0]); // miss
            session.submit(&[2.0]); // alias of the pending miss
            let rest = session.drain_all().unwrap();
            (first, rest)
        });
        assert_eq!(out.0, vec![2.0]);
        assert_eq!(out.1, vec![2.0, 4.0, 4.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(engine.stats().cache_hits, 2);
        let s = engine.stats();
        assert_eq!(s.candidates, s.evaluations + s.cache_hits + s.screened);
    }

    #[test]
    fn drained_non_finite_results_are_evaluated_again() {
        let calls = AtomicU64::new(0);
        let eval = |_: &[f64]| {
            calls.fetch_add(1, Ordering::SeqCst);
            f64::NAN
        };
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(16));
        engine.with_session(&eval, |session| {
            session.submit(&[1.0]);
            session.drain_all().unwrap();
            // The tainted value was never cached, so this is a new miss,
            // not an alias of the drained submission.
            session.submit(&[1.0]);
            session.drain_all().unwrap();
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(engine.stats().evaluations, 2);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn entries_evicted_from_the_cache_are_evaluated_again() {
        let calls = AtomicU64::new(0);
        let eval = |genes: &[f64]| {
            calls.fetch_add(1, Ordering::SeqCst);
            genes[0] * 2.0
        };
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(1));
        let out = engine.with_session(&eval, |session| {
            let mut out = Vec::new();
            for genes in [[1.0], [2.0], [1.0]] {
                session.submit(&genes);
                out.extend(session.drain_all().unwrap());
            }
            out
        });
        assert_eq!(out, vec![2.0, 4.0, 2.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn screened_submissions_alias_and_never_cache() {
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().cache_capacity(16));
        engine.attach_screen(SurrogateScreen::new("negatives", |g: &[f64]| {
            (g[0] < 0.0).then_some(-999.0)
        }));
        let out = engine.with_session(&scalar, |session| {
            session.submit(&[-1.0]); // screened miss
            session.submit(&[-1.0]); // aliases the screened submission
            session.submit(&[2.0]);
            session.drain_all().unwrap()
        });
        assert_eq!(out[0], -999.0);
        assert_eq!(out[1], -999.0);
        let s = engine.stats();
        assert_eq!(s.screened, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.evaluations, 1);
        assert_eq!(s.candidates, s.evaluations + s.cache_hits + s.screened);
        // A fresh session re-screens: the placeholder was never cached.
        let out2 = engine.with_session(&scalar, |session| {
            session.submit(&[-1.0]);
            session.drain_all().unwrap()
        });
        assert_eq!(out2, vec![-999.0]);
        assert_eq!(engine.stats().screened, 2);
    }

    #[test]
    fn primed_completions_replay_without_stats() {
        let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(EngineConfig::default());
        let out = engine.with_session(&scalar, |session| {
            session.prime(41.5);
            session.prime(7.0);
            session.submit(&[1.0]);
            session.drain_all().unwrap()
        });
        assert_eq!(out, vec![41.5, 7.0, scalar(&[1.0])]);
        assert_eq!(engine.stats().candidates, 1);
        assert_eq!(engine.stats().evaluations, 1);
    }

    #[test]
    fn fault_accounting_folds_in_submission_order_under_workers() {
        let plan = FaultPlan::seeded(13).panics(0.2).nonfinite(0.2);
        let base = EngineConfig::default()
            .fault_policy(FaultPolicy::tolerant(3))
            .inject_faults(plan);
        let batch: Vec<Vec<f64>> = (0..48).map(|i| vec![i as f64]).collect();
        let run = |cfg: EngineConfig| {
            let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(cfg);
            let metrics = EngineMetrics::register(&MetricsRegistry::new(), &[]);
            engine.attach_metrics(metrics.clone());
            let eval = |g: &[f64]| g[0] * 2.0;
            let out = engine.with_session(&eval, |session| {
                for genes in &batch {
                    session.submit(genes);
                }
                let mut out = session.drain(7).unwrap();
                out.extend(session.drain_all().unwrap());
                out
            });
            let events = engine.take_fault_events();
            let stats = engine.into_stats();
            // The registry's fault counters are the stats' own.
            assert_eq!(metrics.fault_retries.get(), stats.retries);
            assert_eq!(metrics.fault_recovered.get(), stats.recovered);
            assert_eq!(metrics.fault_quarantined.get(), stats.quarantined);
            (out, stats, events)
        };
        let (serial_out, serial_stats, serial_events) = run(base.clone());
        let (par_out, par_stats, par_events) = run(base.evaluator(EvaluatorKind::ParallelWith(4)));
        assert_eq!(serial_out, par_out);
        assert_eq!(serial_events, par_events);
        assert!(serial_stats.failures > 0 && serial_stats.recovered > 0);
        assert_eq!(serial_stats.failures, par_stats.failures);
        assert_eq!(serial_stats.recovered, par_stats.recovered);
        assert_eq!(serial_stats.retries, par_stats.retries);
    }

    #[test]
    fn drain_failure_reports_submission_index() {
        let plan = FaultPlan::seeded(1).panics(1.0);
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().inject_faults(plan));
        let eval = |g: &[f64]| g[0];
        let err = engine.with_session(&eval, |session| {
            session.submit(&[0.5]);
            session.submit(&[0.7]);
            session.drain_all().unwrap_err()
        });
        assert_eq!(err.index, 0);
    }

    #[test]
    fn a_whole_run_session_retains_only_what_undrained_aliases_read() {
        for kind in [EvaluatorKind::Serial, EvaluatorKind::ParallelWith(2)] {
            let mut engine: ExecutionEngine<f64> =
                ExecutionEngine::new(EngineConfig::default().cache_capacity(1024).evaluator(kind));
            engine.with_session(&scalar, |session| {
                for w in 0..12 {
                    let w = f64::from(w);
                    let window = [[w, 0.0], [w, 1.0], [w, 2.0], [w, 0.0], [w, 1.0], [w, 3.0]];
                    for genes in &window {
                        session.submit(genes);
                    }
                    // The first drain leaves two aliases undrained, so
                    // their drained targets must outlive it.
                    let mut out = session.drain(2).unwrap();
                    assert!(session.entries.len() >= 6);
                    out.extend(session.drain(3).unwrap());
                    // A submission of the next window straddles this
                    // window's last drain.
                    session.submit(&[w + 0.5, 0.0]);
                    out.extend(session.drain(2).unwrap());
                    out.extend(session.drain_all().unwrap());
                    let expected: Vec<f64> = window
                        .iter()
                        .map(|g| scalar(g))
                        .chain([scalar(&[w + 0.5, 0.0])])
                        .collect();
                    assert_eq!(out, expected);
                    assert!(
                        session.entries.len() <= window.len(),
                        "{kind:?}: {} entries retained after window {w}",
                        session.entries.len()
                    );
                }
                assert_eq!(session.submitted(), 12 * 7);
                assert_eq!(session.in_flight(), 0);
            });
            let s = engine.stats();
            assert_eq!(s.evaluations, 12 * 5);
            assert_eq!(s.cache_hits, 12 * 2);
        }
    }

    #[test]
    fn drain_failure_reports_its_position_within_the_drain() {
        let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(EngineConfig::default());
        let eval = |g: &[f64]| {
            assert!(g[0] < 5.0, "evaluation failed on purpose");
            g[0]
        };
        let err = engine.with_session(&eval, |session| {
            for x in [1.0, 2.0, 3.0, 9.0] {
                session.submit(&[x]);
            }
            assert_eq!(session.drain(2).unwrap(), vec![1.0, 2.0]);
            session.drain_all().unwrap_err()
        });
        // Submission index 3 is the second candidate of the last drain.
        assert_eq!(err.index, 1);
    }

    #[test]
    fn undrained_submissions_are_abandoned_cleanly() {
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().evaluator(EvaluatorKind::ParallelWith(4)));
        let drained = engine.with_session(&scalar, |session| {
            for i in 0..16 {
                session.submit(&[i as f64]);
            }
            session.drain(4).unwrap()
        });
        // The 12 undrained submissions are discarded at session teardown
        // without hanging the pool.
        assert_eq!(drained.len(), 4);
        assert_eq!(engine.stats().candidates, 16);
    }
}
