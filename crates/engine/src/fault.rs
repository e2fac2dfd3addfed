//! Fault tolerance: panic containment, bounded retry, quarantine of
//! non-finite results, and deterministic fault injection.
//!
//! Real analog-evaluation backends (SPICE farms, surrogate servers) fail
//! in three characteristic ways: they crash (a panic in-process), they
//! return garbage (NaN/infinite objectives), and they stall (latency
//! spikes). This module models all three:
//!
//! * [`FaultPolicy`] + [`RetryPolicy`] decide what happens when a single
//!   candidate evaluation fails: panics are contained with
//!   [`std::panic::catch_unwind`], the attempt is retried up to a bounded
//!   budget with deterministic exponential-backoff *accounting* (the
//!   backoff that a production deployment would sleep is accumulated into
//!   stats rather than actually slept, so seeded runs stay bit-identical
//!   and tests stay fast), and persistently non-finite results are
//!   replaced by a worst-case [`Quarantine`] placeholder that cannot
//!   dominate any genuine candidate.
//! * [`EvalOutcome`] is the per-candidate verdict the policy produces;
//!   the [`ExecutionEngine`](crate::ExecutionEngine) folds outcomes into
//!   [`EngineStats`](crate::EngineStats) counters in input order, so the
//!   counters are identical under serial and parallel evaluation.
//! * [`FaultInjector`] injects panics, non-finite results, and
//!   artificial latency on a seeded, reproducible schedule keyed on the
//!   candidate's gene bits — the primary test harness for the whole
//!   layer.

use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Duration;

/// The way a single evaluation attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The evaluation closure panicked.
    Panic,
    /// The evaluation produced a non-finite (tainted) result while the
    /// policy quarantines non-finite results.
    NonFinite,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::NonFinite => write!(f, "non-finite result"),
        }
    }
}

/// Bounded retry budget with deterministic exponential backoff.
///
/// The backoff after the `k`-th consecutive failure is
/// `backoff_base * 2^(k-1)`, capped at `backoff_cap`. It is **accounted**
/// (summed into [`EngineStats::backoff_time`](crate::EngineStats)) rather
/// than slept: sleeping would not change any optimizer decision, but it
/// would make wall-clock nondeterministic and tests slow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed per candidate, including the first
    /// (values below 1 behave as 1).
    pub max_attempts: u32,
    /// Backoff after the first failure; doubles per further failure.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff step.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_secs(60),
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts and no backoff.
    pub fn with_max_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Sets the base backoff (after the first failure).
    pub fn backoff_base(mut self, base: Duration) -> Self {
        self.backoff_base = base;
        self
    }

    /// Sets the per-step backoff cap.
    pub fn backoff_cap(mut self, cap: Duration) -> Self {
        self.backoff_cap = cap;
        self
    }

    /// The deterministic backoff charged after the `failure`-th
    /// consecutive failure (1-based).
    pub fn backoff_after(&self, failure: u32) -> Duration {
        let exp = failure.saturating_sub(1).min(31);
        self.backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap)
    }
}

/// What to do with a candidate whose retry budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExhaustedAction {
    /// Fail the whole batch with a typed error (the default — matches
    /// the strictness of the pre-fault-layer engine, minus the abort).
    #[default]
    Abort,
    /// Replace the candidate's result with its worst-case
    /// [`Quarantine`] placeholder and continue the run. Only possible
    /// when at least one attempt produced a (tainted) value; a candidate
    /// that panicked on every attempt still aborts, because there is no
    /// value to derive a placeholder from.
    Quarantine,
}

/// Full fault-handling policy of an engine: retry budget, non-finite
/// quarantine, and the action taken when the budget runs out.
///
/// The default policy (one attempt, no quarantine, abort) reproduces the
/// historical engine behavior except that evaluator panics surface as
/// typed [`EvalFailure`]s instead of unwinding through the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPolicy {
    /// Per-candidate retry budget.
    pub retry: RetryPolicy,
    /// Treat non-finite results as failures (retry, then quarantine or
    /// abort) instead of passing them through.
    pub quarantine_nonfinite: bool,
    /// Action when the retry budget is exhausted.
    pub on_exhausted: ExhaustedAction,
}

impl FaultPolicy {
    /// A forgiving preset: `max_attempts` tries per candidate,
    /// non-finite results treated as failures, and quarantine (not
    /// abort) when the budget runs out.
    pub fn tolerant(max_attempts: u32) -> Self {
        FaultPolicy {
            retry: RetryPolicy::with_max_attempts(max_attempts),
            quarantine_nonfinite: true,
            on_exhausted: ExhaustedAction::Quarantine,
        }
    }

    /// Sets the retry budget.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Shorthand for setting only the attempt count of the retry budget.
    pub fn max_attempts(mut self, max_attempts: u32) -> Self {
        self.retry.max_attempts = max_attempts;
        self
    }

    /// Enables or disables non-finite quarantine.
    pub fn quarantine_nonfinite(mut self, on: bool) -> Self {
        self.quarantine_nonfinite = on;
        self
    }

    /// Sets the exhausted-budget action.
    pub fn on_exhausted(mut self, action: ExhaustedAction) -> Self {
        self.on_exhausted = action;
        self
    }

    /// Evaluates one candidate under this policy: contains panics,
    /// retries within budget, and classifies the result.
    ///
    /// Deterministic given a deterministic `eval`: the outcome depends
    /// only on the sequence of attempt results, never on wall-clock or
    /// thread scheduling.
    pub fn execute<T, F>(&self, eval: &F, genes: &[f64]) -> EvalOutcome<T>
    where
        T: Quarantine,
        F: Fn(&[f64]) -> T,
    {
        let max_attempts = self.retry.max_attempts.max(1);
        let mut failures = 0u32;
        let mut backoff = Duration::ZERO;
        let mut last_tainted: Option<T> = None;
        let mut last_kind = FaultKind::Panic;
        let mut last_message = String::new();

        for attempt in 1..=max_attempts {
            match panic::catch_unwind(AssertUnwindSafe(|| eval(genes))) {
                Ok(value) => {
                    if self.quarantine_nonfinite && value.is_tainted() {
                        failures += 1;
                        last_kind = FaultKind::NonFinite;
                        last_message = "evaluation produced a non-finite result".to_string();
                        last_tainted = Some(value);
                    } else if failures == 0 {
                        return EvalOutcome::Ok(value);
                    } else {
                        return EvalOutcome::Recovered {
                            value,
                            failures,
                            backoff,
                            kind: last_kind,
                        };
                    }
                }
                Err(payload) => {
                    failures += 1;
                    last_kind = FaultKind::Panic;
                    last_message = panic_message(payload.as_ref());
                }
            }
            if attempt < max_attempts {
                backoff += self.retry.backoff_after(failures);
            }
        }

        if self.on_exhausted == ExhaustedAction::Quarantine {
            if let Some(tainted) = last_tainted {
                return EvalOutcome::Quarantined {
                    value: tainted.quarantine(),
                    failures,
                    backoff,
                    kind: last_kind,
                };
            }
        }
        EvalOutcome::Failed(EvalFailure {
            index: 0,
            attempts: failures,
            kind: last_kind,
            message: last_message,
            backoff,
        })
    }
}

/// Extracts a readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        injected.message.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Per-candidate verdict of a [`FaultPolicy`] evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutcome<T> {
    /// Succeeded on the first attempt.
    Ok(T),
    /// Succeeded after one or more failed attempts.
    Recovered {
        /// The successful result.
        value: T,
        /// Failed attempts that preceded the success.
        failures: u32,
        /// Deterministic backoff accounted across the retries.
        backoff: Duration,
        /// How the last failed attempt failed.
        kind: FaultKind,
    },
    /// The retry budget ran out with only tainted values; the result is
    /// a worst-case placeholder that cannot dominate genuine candidates.
    Quarantined {
        /// The quarantine placeholder.
        value: T,
        /// Failed attempts (equals the attempt budget).
        failures: u32,
        /// Deterministic backoff accounted across the retries.
        backoff: Duration,
        /// How the last failed attempt failed.
        kind: FaultKind,
    },
    /// The retry budget ran out and the policy aborts.
    Failed(
        /// The typed failure to surface to the caller.
        EvalFailure,
    ),
}

impl<T> EvalOutcome<T> {
    /// Re-attempts performed after a failure (0 for [`EvalOutcome::Ok`]).
    pub fn retries(&self) -> u32 {
        match self {
            EvalOutcome::Ok(_) => 0,
            EvalOutcome::Recovered { failures, .. } => *failures,
            EvalOutcome::Quarantined { failures, .. } => failures.saturating_sub(1),
            EvalOutcome::Failed(f) => f.attempts.saturating_sub(1),
        }
    }
}

/// How a non-fatal fault was resolved by the [`FaultPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultResolution {
    /// A later attempt succeeded within the retry budget.
    Recovered,
    /// The retry budget ran out and the candidate was replaced by its
    /// worst-case [`Quarantine`] placeholder.
    Quarantined,
}

impl fmt::Display for FaultResolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultResolution::Recovered => write!(f, "recovered"),
            FaultResolution::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// One fault-handling episode observed by the
/// [`ExecutionEngine`](crate::ExecutionEngine): a candidate whose
/// evaluation failed at least once but was ultimately resolved (fatal
/// failures surface as [`EvalFailure`] errors instead).
///
/// Events are buffered in batch order and drained with
/// [`ExecutionEngine::take_fault_events`](crate::ExecutionEngine::take_fault_events),
/// which run loops forward into their telemetry streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Position of the candidate in the submitted batch (for a session,
    /// in the drain that folded it).
    pub index: usize,
    /// How the evaluation attempts failed.
    pub kind: FaultKind,
    /// Failed attempts before resolution.
    pub failures: u32,
    /// How the episode ended.
    pub resolution: FaultResolution,
}

/// A candidate evaluation that failed after exhausting its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalFailure {
    /// Position of the failing candidate in the submitted batch (for a
    /// session, in the drain that surfaced it).
    pub index: usize,
    /// Attempts performed (all of which failed).
    pub attempts: u32,
    /// How the final attempt failed.
    pub kind: FaultKind,
    /// Human-readable detail (panic message or taint description).
    pub message: String,
    /// Deterministic backoff accounted across the retries.
    pub backoff: Duration,
}

impl fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "candidate {} failed after {} attempt(s) ({}): {}",
            self.index, self.attempts, self.kind, self.message
        )
    }
}

impl std::error::Error for EvalFailure {}

/// Types that can detect and stand in for corrupted evaluation results.
///
/// Implemented by result types flowing through
/// [`ExecutionEngine::try_evaluate_batch`](crate::ExecutionEngine::try_evaluate_batch):
/// `is_tainted` detects non-finite garbage, `quarantine` derives a
/// same-shaped worst-case placeholder from it, and `corrupt` produces the
/// garbage itself (used only by fault injection).
pub trait Quarantine {
    /// Whether this value contains non-finite components that would
    /// poison selection if trusted.
    fn is_tainted(&self) -> bool;

    /// A same-shaped worst-case placeholder: every component is as bad
    /// as the type can express, so the value cannot dominate any genuine
    /// candidate.
    fn quarantine(&self) -> Self;

    /// A same-shaped non-finite variant of this value, as a faulty
    /// backend would return. Used by [`FaultInjector`] to fabricate
    /// garbage results deterministically.
    fn corrupt(&self) -> Self;
}

impl Quarantine for f64 {
    fn is_tainted(&self) -> bool {
        !self.is_finite()
    }

    fn quarantine(&self) -> Self {
        f64::INFINITY
    }

    fn corrupt(&self) -> Self {
        f64::NAN
    }
}

/// Panic payload used by [`FaultInjector`]; the process-wide panic hook
/// installed by [`silence_injected_panics`] suppresses the default
/// "thread panicked" noise for this payload type only.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// Description of the injected fault.
    pub message: String,
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once per process) a panic hook that stays silent for
/// [`InjectedPanic`] payloads and delegates everything else to the
/// previous hook. Called automatically by [`FaultInjector::new`], so
/// injected panics do not spam test output while genuine panics keep
/// their backtraces.
pub fn silence_injected_panics() {
    QUIET_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Seeded, reproducible fault schedule.
///
/// Each candidate is assigned a fault (or none) by hashing its gene bits
/// with `seed`, so the schedule is a pure function of the candidate —
/// independent of evaluation order, thread interleaving, and caching.
/// The rates partition the unit interval: a candidate whose hash lands in
/// `[0, panic_rate)` panics, `[panic_rate, panic_rate+nonfinite_rate)`
/// returns non-finite garbage, and the next `latency_rate`-wide span is
/// delayed by `latency`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injection schedule.
    pub seed: u64,
    /// Fraction of candidates whose evaluation panics.
    pub panic_rate: f64,
    /// Fraction of candidates whose evaluation returns non-finite
    /// garbage.
    pub nonfinite_rate: f64,
    /// Fraction of candidates whose evaluation is artificially delayed.
    pub latency_rate: f64,
    /// The artificial delay applied to latency-scheduled candidates.
    pub latency: Duration,
    /// Consecutive failing calls per scheduled candidate before it
    /// evaluates cleanly — keep below the policy's `max_attempts` for a
    /// run that recovers everywhere.
    pub faults_per_candidate: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_rate: 0.0,
            nonfinite_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::ZERO,
            faults_per_candidate: 1,
        }
    }
}

impl FaultPlan {
    /// A plan with the given schedule seed and no faults.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the fraction of candidates that panic.
    pub fn panics(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Sets the fraction of candidates that return non-finite garbage.
    pub fn nonfinite(mut self, rate: f64) -> Self {
        self.nonfinite_rate = rate;
        self
    }

    /// Sets the fraction of candidates that are delayed, and the delay.
    pub fn latency(mut self, rate: f64, delay: Duration) -> Self {
        self.latency_rate = rate;
        self.latency = delay;
        self
    }

    /// Sets how many consecutive calls fail per scheduled candidate.
    pub fn faults_per_candidate(mut self, n: u32) -> Self {
        self.faults_per_candidate = n;
        self
    }
}

/// SplitMix64 finalizer: decorrelates the gene-bit hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the plan schedules for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectedFault {
    Panic,
    NonFinite,
    Latency,
}

/// Totals of faults a [`FaultInjector`] has injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionCounts {
    /// Panics injected.
    pub panics: u64,
    /// Non-finite results injected.
    pub nonfinite: u64,
    /// Artificial delays injected.
    pub delays: u64,
}

impl InjectionCounts {
    /// Total injected *failures* (panics + non-finite results; delays
    /// slow evaluation down but do not fail it).
    pub fn failures(&self) -> u64 {
        self.panics + self.nonfinite
    }
}

/// Deterministic fault injector driven by a [`FaultPlan`].
///
/// Thread-safe: the per-candidate call counters live behind a mutex and
/// the injection totals are atomics, so the injector can sit inside the
/// `Sync` closure an [`EvaluationSession`](crate::EvaluationSession)'s
/// workers share. For a scheduled candidate, the first
/// [`faults_per_candidate`](FaultPlan::faults_per_candidate) calls fail
/// and later calls succeed — which is exactly the transient-fault shape a
/// bounded [`RetryPolicy`] recovers from, making a fault-injected run
/// reproduce the fault-free front at the same optimizer seed.
///
/// The per-candidate counters grow with the number of distinct candidates
/// seen; the injector is a test harness, not a production component.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    calls: Mutex<HashMap<Vec<u64>, u32>>,
    panics: AtomicU64,
    nonfinite: AtomicU64,
    delays: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector for `plan` (and silences the default panic
    /// hook for injected panics).
    pub fn new(plan: FaultPlan) -> Self {
        silence_injected_panics();
        FaultInjector {
            plan,
            calls: Mutex::new(HashMap::new()),
            panics: AtomicU64::new(0),
            nonfinite: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Totals of the faults injected so far.
    pub fn counts(&self) -> InjectionCounts {
        InjectionCounts {
            panics: self.panics.load(Ordering::SeqCst),
            nonfinite: self.nonfinite.load(Ordering::SeqCst),
            delays: self.delays.load(Ordering::SeqCst),
        }
    }

    /// The fault (if any) the plan schedules for `genes` — a pure
    /// function of the gene bits and the plan seed.
    fn decide(&self, genes: &[f64]) -> Option<InjectedFault> {
        let mut h = mix64(self.plan.seed);
        for g in genes {
            h = mix64(h ^ g.to_bits());
        }
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.plan.panic_rate {
            Some(InjectedFault::Panic)
        } else if u < self.plan.panic_rate + self.plan.nonfinite_rate {
            Some(InjectedFault::NonFinite)
        } else if u < self.plan.panic_rate + self.plan.nonfinite_rate + self.plan.latency_rate {
            Some(InjectedFault::Latency)
        } else {
            None
        }
    }

    /// Returns the number of previous calls recorded for this candidate
    /// and increments the counter.
    fn bump(&self, genes: &[f64]) -> u32 {
        let key: Vec<u64> = genes.iter().map(|g| g.to_bits()).collect();
        let mut calls = self.calls.lock().expect("injector counter lock");
        let n = calls.entry(key).or_insert(0);
        let previous = *n;
        *n += 1;
        previous
    }

    /// Evaluates `genes` through `eval`, injecting the scheduled fault.
    ///
    /// Panic injection raises an [`InjectedPanic`]; non-finite injection
    /// evaluates the candidate and corrupts the result (via
    /// [`Quarantine::corrupt`]); latency injection sleeps for the
    /// configured delay before evaluating.
    pub fn invoke<T, F>(&self, eval: &F, genes: &[f64]) -> T
    where
        T: Quarantine,
        F: Fn(&[f64]) -> T,
    {
        match self.decide(genes) {
            Some(InjectedFault::Panic) => {
                if self.bump(genes) < self.plan.faults_per_candidate {
                    self.panics.fetch_add(1, Ordering::SeqCst);
                    panic::panic_any(InjectedPanic {
                        message: "injected panic".to_string(),
                    });
                }
                eval(genes)
            }
            Some(InjectedFault::NonFinite) => {
                if self.bump(genes) < self.plan.faults_per_candidate {
                    self.nonfinite.fetch_add(1, Ordering::SeqCst);
                    eval(genes).corrupt()
                } else {
                    eval(genes)
                }
            }
            Some(InjectedFault::Latency) => {
                if self.bump(genes) < self.plan.faults_per_candidate {
                    self.delays.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(self.plan.latency);
                }
                eval(genes)
            }
            None => eval(genes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy::with_max_attempts(5)
            .backoff_base(Duration::from_millis(10))
            .backoff_cap(Duration::from_millis(25));
        assert_eq!(r.backoff_after(1), Duration::from_millis(10));
        assert_eq!(r.backoff_after(2), Duration::from_millis(20));
        assert_eq!(r.backoff_after(3), Duration::from_millis(25));
        assert_eq!(r.backoff_after(40), Duration::from_millis(25));
    }

    #[test]
    fn retry_never_exceeds_max_attempts() {
        silence_injected_panics();
        for max in [1u32, 2, 3, 7] {
            let calls = AtomicU32::new(0);
            let policy = FaultPolicy::default().max_attempts(max);
            let eval = |_: &[f64]| -> f64 {
                calls.fetch_add(1, Ordering::SeqCst);
                panic::panic_any(InjectedPanic {
                    message: "always fails".to_string(),
                })
            };
            let outcome = policy.execute(&eval, &[1.0]);
            assert_eq!(calls.load(Ordering::SeqCst), max);
            match outcome {
                EvalOutcome::Failed(f) => {
                    assert_eq!(f.attempts, max);
                    assert_eq!(f.kind, FaultKind::Panic);
                }
                other => panic!("expected Failed, got {other:?}"),
            }
        }
    }

    #[test]
    fn transient_panic_recovers_with_backoff_accounting() {
        silence_injected_panics();
        let calls = AtomicU32::new(0);
        let policy = FaultPolicy::default()
            .retry(RetryPolicy::with_max_attempts(4).backoff_base(Duration::from_millis(1)));
        let eval = |genes: &[f64]| -> f64 {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                panic::panic_any(InjectedPanic {
                    message: "transient".to_string(),
                });
            }
            genes[0] * 2.0
        };
        match policy.execute(&eval, &[21.0]) {
            EvalOutcome::Recovered {
                value,
                failures,
                backoff,
                kind,
            } => {
                assert_eq!(value, 42.0);
                assert_eq!(failures, 2);
                assert_eq!(kind, FaultKind::Panic);
                // 1ms after failure 1, 2ms after failure 2.
                assert_eq!(backoff, Duration::from_millis(3));
            }
            other => panic!("expected Recovered, got {other:?}"),
        }
    }

    #[test]
    fn persistent_nan_is_quarantined() {
        let policy = FaultPolicy::tolerant(3);
        let outcome: EvalOutcome<f64> = policy.execute(&|_: &[f64]| f64::NAN, &[1.0]);
        match outcome {
            EvalOutcome::Quarantined {
                value, failures, ..
            } => {
                assert_eq!(value, f64::INFINITY);
                assert_eq!(failures, 3);
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }

    #[test]
    fn nan_passes_through_without_quarantine_policy() {
        let policy = FaultPolicy::default();
        match policy.execute(&|_: &[f64]| f64::NAN, &[1.0]) {
            EvalOutcome::Ok(v) => assert!(v.is_nan()),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn persistent_panic_aborts_even_under_quarantine_action() {
        silence_injected_panics();
        let policy = FaultPolicy::tolerant(2);
        let outcome: EvalOutcome<f64> = policy.execute(
            &|_: &[f64]| -> f64 {
                panic::panic_any(InjectedPanic {
                    message: "hard fault".to_string(),
                })
            },
            &[1.0],
        );
        match outcome {
            EvalOutcome::Failed(f) => {
                assert_eq!(f.kind, FaultKind::Panic);
                assert_eq!(f.message, "hard fault");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn outcome_retry_counts() {
        assert_eq!(EvalOutcome::Ok(1.0).retries(), 0);
        let rec = EvalOutcome::Recovered {
            value: 1.0,
            failures: 2,
            backoff: Duration::ZERO,
            kind: FaultKind::Panic,
        };
        assert_eq!(rec.retries(), 2);
        let q = EvalOutcome::Quarantined {
            value: 1.0,
            failures: 3,
            backoff: Duration::ZERO,
            kind: FaultKind::NonFinite,
        };
        assert_eq!(q.retries(), 2);
    }

    #[test]
    fn injection_schedule_is_deterministic_and_rate_like() {
        let plan = FaultPlan::seeded(7).panics(0.25);
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        let mut scheduled = 0;
        for i in 0..400 {
            let genes = vec![i as f64 * 0.37, (i % 13) as f64];
            assert_eq!(a.decide(&genes), b.decide(&genes));
            if a.decide(&genes).is_some() {
                scheduled += 1;
            }
        }
        // Rough rate check: 25% ± a wide margin.
        assert!((50..=150).contains(&scheduled), "scheduled = {scheduled}");
    }

    #[test]
    fn injector_faults_first_calls_then_recovers() {
        // Find a candidate the plan schedules for panic.
        let plan = FaultPlan::seeded(3).panics(0.5).faults_per_candidate(2);
        let injector = FaultInjector::new(plan);
        let genes = (0..200)
            .map(|i| vec![i as f64])
            .find(|g| injector.decide(g) == Some(InjectedFault::Panic))
            .expect("a scheduled candidate exists");
        let eval = |g: &[f64]| g[0] + 1.0;
        for _ in 0..2 {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| injector.invoke(&eval, &genes)));
            assert!(caught.is_err());
        }
        // Third call succeeds.
        assert_eq!(injector.invoke(&eval, &genes), genes[0] + 1.0);
        assert_eq!(injector.counts().panics, 2);
        assert_eq!(injector.counts().failures(), 2);
    }

    #[test]
    fn corrupting_injection_is_detected_by_policy() {
        let plan = FaultPlan::seeded(11).nonfinite(1.0);
        let injector = FaultInjector::new(plan);
        let policy = FaultPolicy::tolerant(2);
        let eval = |g: &[f64]| g[0] * 3.0;
        let outcome = policy.execute(&|g: &[f64]| injector.invoke(&eval, g), &[2.0]);
        match outcome {
            EvalOutcome::Recovered {
                value, failures, ..
            } => {
                assert_eq!(value, 6.0);
                assert_eq!(failures, 1);
            }
            other => panic!("expected Recovered, got {other:?}"),
        }
        assert_eq!(injector.counts().nonfinite, 1);
    }

    #[test]
    fn f64_quarantine_impl() {
        assert!(f64::NAN.is_tainted());
        assert!(f64::INFINITY.is_tainted());
        assert!(!1.5f64.is_tainted());
        assert_eq!(1.5f64.quarantine(), f64::INFINITY);
        assert!(1.5f64.corrupt().is_nan());
    }
}
