//! Run-health watchdogs: sinks that watch the event stream for
//! pathological run shapes — convergence stalls and evaluation fault
//! storms — and emit structured [`HealthWarning`]s.
//!
//! Watchdogs are ordinary [`Sink`]s, so they compose with byte-stream
//! or metrics sinks through [`Tee`](super::sink::Tee) and obey the same
//! contract: they observe, they never steer, and a healthy run leaves
//! every watchdog silent.

use std::collections::VecDeque;
use std::io;

use moea::hypervolume::hypervolume;

use super::event::{EventKind, RunEvent};
use super::sink::Sink;

/// A structured warning emitted by a run-health watchdog.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthWarning {
    /// Stable identifier of the watchdog that fired (`"stall"`,
    /// `"fault_rate"`).
    pub watchdog: &'static str,
    /// Generation at which the condition was detected.
    pub generation: usize,
    /// Human-readable description of the condition.
    pub message: String,
}

/// Relative hypervolume improvement below which a [`StallDetector`]
/// window counts as flat.
const STALL_TOLERANCE: f64 = 1e-9;

/// Detects convergence stalls: fires when, over a sliding window of
/// generations, the feasible-front hypervolume fails to improve *and*
/// the feasible count fails to grow.
///
/// Fires once per plateau episode; any subsequent improvement re-arms
/// the detector. Runs shorter than the window never fire.
#[derive(Debug, Clone)]
pub struct StallDetector {
    ref_point: Vec<f64>,
    window: usize,
    history: VecDeque<(f64, usize)>,
    armed: bool,
    warnings: Vec<HealthWarning>,
}

impl StallDetector {
    /// Creates a detector with hypervolume measured against `ref_point`
    /// (one coordinate per objective, minimized space) and a plateau
    /// window of `window` generations. `window` is clamped to at
    /// least 1.
    pub fn new(ref_point: Vec<f64>, window: usize) -> Self {
        StallDetector {
            ref_point,
            window: window.max(1),
            history: VecDeque::new(),
            armed: true,
            warnings: Vec::new(),
        }
    }

    /// Warnings emitted so far.
    pub fn warnings(&self) -> &[HealthWarning] {
        &self.warnings
    }
}

impl Sink for StallDetector {
    fn record(&mut self, event: &RunEvent) {
        let RunEvent::GenerationEnd {
            generation,
            feasible,
            front,
            ..
        } = event
        else {
            return;
        };
        let hv = if front.is_empty() {
            0.0
        } else {
            hypervolume(front, &self.ref_point)
        };
        self.history.push_back((hv, *feasible));
        // A window of W generations needs W+1 samples: the base plus W
        // generations that failed to move it. Counting the generations
        // after the base keeps a window of `usize::MAX` from wrapping.
        let after_base = self.history.len() - 1;
        if after_base > self.window {
            self.history.pop_front();
        } else if after_base < self.window {
            return;
        }
        let (base_hv, base_feasible) = self.history[0];
        let threshold = base_hv.abs().max(1.0) * STALL_TOLERANCE;
        let stalled = hv - base_hv <= threshold && *feasible <= base_feasible;
        if stalled {
            if self.armed {
                self.armed = false;
                self.warnings.push(HealthWarning {
                    watchdog: "stall",
                    generation: *generation,
                    message: format!(
                        "no hypervolume or feasibility improvement over the last {} \
                         generations (hypervolume {:.6e}, {} feasible)",
                        self.window, hv, feasible
                    ),
                });
            }
        } else {
            self.armed = true;
        }
    }

    fn wants(&self, kind: EventKind) -> bool {
        kind == EventKind::GenerationEnd
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Warns when the per-generation evaluation-fault episode rate (fault
/// episodes — retries-to-success plus quarantines — divided by the
/// objective evaluations attempted that generation) exceeds a
/// threshold.
///
/// One warning per offending generation, so a sustained fault storm is
/// visible as a burst of warnings rather than a single line.
#[derive(Debug, Clone)]
pub struct FaultRateAlarm {
    max_rate: f64,
    episodes: u64,
    quarantined: u64,
    last_evaluations: u64,
    warnings: Vec<HealthWarning>,
}

impl FaultRateAlarm {
    /// Creates an alarm firing when more than `max_rate` fault episodes
    /// occur per evaluation in a single generation (e.g. `0.1` = one
    /// episode per ten evaluations).
    pub fn new(max_rate: f64) -> Self {
        FaultRateAlarm {
            max_rate: max_rate.max(0.0),
            episodes: 0,
            quarantined: 0,
            last_evaluations: 0,
            warnings: Vec::new(),
        }
    }

    /// Warnings emitted so far.
    pub fn warnings(&self) -> &[HealthWarning] {
        &self.warnings
    }
}

impl Sink for FaultRateAlarm {
    fn record(&mut self, event: &RunEvent) {
        match event {
            RunEvent::EvaluationFault { resolution, .. } => {
                self.episodes += 1;
                if matches!(resolution, engine::FaultResolution::Quarantined) {
                    self.quarantined += 1;
                }
            }
            RunEvent::GenerationEnd {
                generation,
                evaluations,
                ..
            } => {
                let delta = evaluations.saturating_sub(self.last_evaluations);
                self.last_evaluations = *evaluations;
                let episodes = std::mem::take(&mut self.episodes);
                let quarantined = std::mem::take(&mut self.quarantined);
                if delta == 0 {
                    return;
                }
                #[allow(clippy::cast_precision_loss)]
                let rate = episodes as f64 / delta as f64;
                if rate > self.max_rate {
                    self.warnings.push(HealthWarning {
                        watchdog: "fault_rate",
                        generation: *generation,
                        message: format!(
                            "{episodes} fault episodes ({quarantined} quarantined) across \
                             {delta} evaluations this generation — rate {rate:.3} exceeds \
                             threshold {:.3}",
                            self.max_rate
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    fn wants(&self, kind: EventKind) -> bool {
        matches!(kind, EventKind::GenerationEnd | EventKind::EvaluationFault)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{FaultKind, FaultResolution};

    fn gen_end(generation: usize, phase: u8, evaluations: u64, front: Vec<Vec<f64>>) -> RunEvent {
        RunEvent::GenerationEnd {
            generation,
            phase,
            temperature: 1.0,
            promoted: 0,
            feasible: front.len(),
            population: 40,
            evaluations,
            front,
        }
    }

    fn fault(generation: usize, resolution: FaultResolution) -> RunEvent {
        RunEvent::EvaluationFault {
            generation,
            kind: FaultKind::Panic,
            failures: 1,
            resolution,
        }
    }

    #[test]
    fn stall_detector_fires_once_on_plateau_and_rearms() {
        let mut dog = StallDetector::new(vec![10.0, 10.0], 3);
        // Improving prefix: no warning.
        for g in 1..=3 {
            let x = f64::from(g);
            dog.record(&gen_end(g as usize, 2, 40, vec![vec![5.0 - x, 5.0 - x]]));
        }
        assert!(dog.warnings().is_empty());
        // Flat for longer than the window: exactly one warning.
        for g in 4..=9 {
            dog.record(&gen_end(g, 2, 40, vec![vec![2.0, 2.0]]));
        }
        assert_eq!(dog.warnings().len(), 1);
        assert_eq!(dog.warnings()[0].watchdog, "stall");
        // Base is generation 3; generations 4-6 are the flat window.
        assert_eq!(dog.warnings()[0].generation, 6);
        // Improvement re-arms; a second plateau fires again.
        dog.record(&gen_end(10, 2, 40, vec![vec![1.0, 1.0]]));
        for g in 11..=14 {
            dog.record(&gen_end(g, 2, 40, vec![vec![1.0, 1.0]]));
        }
        assert_eq!(dog.warnings().len(), 2);
    }

    #[test]
    fn stall_detector_counts_feasibility_growth_as_progress() {
        let mut dog = StallDetector::new(vec![10.0, 10.0], 2);
        // Hypervolume is flat but the feasible count keeps growing, as
        // in phase I before any front exists: healthy, not a stall.
        for g in 1..=8 {
            let mut event = gen_end(g, 1, 40, vec![]);
            if let RunEvent::GenerationEnd { feasible, .. } = &mut event {
                *feasible = g;
            }
            dog.record(&event);
        }
        assert!(dog.warnings().is_empty());
    }

    #[test]
    fn stall_detector_with_the_widest_window_never_fires() {
        let mut dog = StallDetector::new(vec![10.0, 10.0], usize::MAX);
        for g in 1..=20 {
            dog.record(&gen_end(g, 2, 40, vec![vec![2.0, 2.0]]));
        }
        assert!(dog.warnings().is_empty());
    }

    #[test]
    fn stall_detector_silent_on_short_runs() {
        let mut dog = StallDetector::new(vec![10.0, 10.0], 5);
        for g in 1..=5 {
            dog.record(&gen_end(g, 2, 40, vec![vec![2.0, 2.0]]));
        }
        assert!(dog.warnings().is_empty());
    }

    #[test]
    fn fault_rate_alarm_fires_per_offending_generation() {
        let mut alarm = FaultRateAlarm::new(0.1);
        // Generation 1: 3 episodes over 10 evaluations = 0.3 > 0.1.
        alarm.record(&fault(1, FaultResolution::Recovered));
        alarm.record(&fault(1, FaultResolution::Quarantined));
        alarm.record(&fault(1, FaultResolution::Recovered));
        alarm.record(&gen_end(1, 2, 10, vec![]));
        // Generation 2: quiet.
        alarm.record(&gen_end(2, 2, 20, vec![]));
        // Generation 3: 1 episode over 10 evaluations = 0.1, not > 0.1.
        alarm.record(&fault(3, FaultResolution::Recovered));
        alarm.record(&gen_end(3, 2, 30, vec![]));
        let warnings = alarm.warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].watchdog, "fault_rate");
        assert_eq!(warnings[0].generation, 1);
        assert!(warnings[0].message.contains("1 quarantined"));
    }

    #[test]
    fn fault_rate_alarm_silent_on_fault_free_stream() {
        let mut alarm = FaultRateAlarm::new(0.01);
        for g in 1..=10 {
            alarm.record(&gen_end(g, 2, g as u64 * 40, vec![]));
        }
        assert!(alarm.warnings().is_empty());
    }

    #[test]
    fn watchdogs_want_only_their_inputs() {
        let stall = StallDetector::new(vec![1.0, 1.0], 5);
        assert!(stall.wants(EventKind::GenerationEnd));
        assert!(!stall.wants(EventKind::StageTiming));
        assert!(!stall.wants(EventKind::EvaluationFault));

        let faults = FaultRateAlarm::new(0.5);
        assert!(faults.wants(EventKind::EvaluationFault));
        assert!(faults.wants(EventKind::GenerationEnd));
        assert!(!faults.wants(EventKind::CheckpointWritten));
    }
}
