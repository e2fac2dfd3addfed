//! Evaluation strategies: the serial default or a scoped-thread pool.
//!
//! [`EvaluatorKind`] only *names* a strategy for
//! [`EngineConfig::evaluator`](crate::EngineConfig::evaluator); the
//! [`EvaluationSession`](crate::EvaluationSession) carries it out. Every
//! strategy hands results back in submission order, and evaluation
//! functions in this workspace consume no randomness, so a seeded
//! optimizer run reproduces bit-for-bit under any of them.

/// The evaluation strategy of an engine.
///
/// The run-loop configs derive `Clone`/`Debug`/`PartialEq`, so they store
/// this enum rather than a boxed trait object. Results come back in
/// submission order under every strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvaluatorKind {
    /// One-at-a-time evaluation on the calling thread (the default).
    #[default]
    Serial,
    /// Scoped OS worker threads, as many as the host's available
    /// parallelism; workers take candidates one at a time as they are
    /// submitted.
    Parallel,
    /// Scoped-thread fan-out capped at a fixed worker count.
    ParallelWith(
        /// Maximum worker threads (`0` = automatic).
        usize,
    ),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, ExecutionEngine};

    fn batch(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, (2 * i) as f64]).collect()
    }

    fn sum(genes: &[f64]) -> f64 {
        genes.iter().sum()
    }

    /// One batch through a fresh engine running `evaluator`.
    fn run(evaluator: EvaluatorKind, b: &[Vec<f64>]) -> Vec<f64> {
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().evaluator(evaluator));
        engine.evaluate_batch(b, &sum)
    }

    #[test]
    fn serial_preserves_order() {
        let out = run(EvaluatorKind::Serial, &batch(7));
        assert_eq!(out, vec![0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let b = batch(101);
        let serial = run(EvaluatorKind::Serial, &b);
        for threads in [0, 1, 2, 3, 8, 200] {
            let par = run(EvaluatorKind::ParallelWith(threads), &b);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_handles_empty_and_single() {
        let e = EvaluatorKind::ParallelWith(4);
        assert!(run(e, &[]).is_empty());
        assert_eq!(run(e, &batch(1)), vec![0.0]);
    }

    #[test]
    fn parallel_actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::{mpsc, Mutex};
        use std::time::Duration;
        let ids = Mutex::new(HashSet::new());
        let (tx, rx) = mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let mut engine: ExecutionEngine<f64> =
            ExecutionEngine::new(EngineConfig::default().evaluator(EvaluatorKind::ParallelWith(4)));
        // Candidate 0 holds its worker until candidate 1 has run, so
        // candidate 1 must run on another worker (a serial run times out
        // and records one thread).
        engine.evaluate_batch(&batch(16), &|genes: &[f64]| {
            ids.lock().unwrap().insert(std::thread::current().id());
            if genes[0] == 0.0 {
                let _ = rx.lock().unwrap().recv_timeout(Duration::from_secs(10));
            } else if genes[0] == 1.0 {
                tx.lock().unwrap().send(()).unwrap();
            }
            genes[0]
        });
        assert!(ids.into_inner().unwrap().len() > 1);
    }

    #[test]
    fn kind_dispatch_and_from() {
        let b = batch(5);
        let serial = run(EvaluatorKind::Serial, &b);
        assert_eq!(run(EvaluatorKind::Parallel, &b), serial);
        assert_eq!(run(EvaluatorKind::ParallelWith(2), &b), serial);
        assert_eq!(EvaluatorKind::default(), EvaluatorKind::Serial);
    }
}
