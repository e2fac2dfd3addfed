//! A [`Sink`] that bridges the [`RunEvent`] stream into a live
//! [`engine::MetricsRegistry`].
//!
//! Where the engine's own [`engine::EngineMetrics`] bundle mirrors
//! evaluation counters, this sink counts the *optimizer-level*
//! trajectory: generations completed, phase transitions, promotions,
//! fault episodes and checkpoints. It keeps no gauge: a run's current
//! front, population, phase and hypervolume are facts of one run, read
//! from its event stream, and counters are the only series that can add
//! many runs into one cell.
//!
//! Like every sink, recording observes and never steers: events are
//! derived purely from optimizer state and constructing them consumes no
//! RNG, so attaching a `RegistrySink` leaves a seeded run bit-identical
//! to a bare one (pinned by the golden-master variants).

use engine::{Counter, MetricsRegistry};

use super::event::{EventKind, RunEvent};
use super::sink::Sink;

/// Bridges run events into counter handles registered under a shared
/// label set.
#[derive(Debug, Clone)]
pub struct RegistrySink {
    generations: Counter,
    phase_transitions: Counter,
    promotions: Counter,
    promoted: Counter,
    fault_events: Counter,
    checkpoints: Counter,
}

impl RegistrySink {
    /// Registers the six run-trajectory counters under `labels` in
    /// `registry`. Labels follow the registry's model (`tenant` and
    /// `arm`; see [`engine::metrics::LABEL_NAMES`]); every run recorded
    /// under one label set adds into the same counters.
    pub fn register(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        RegistrySink {
            generations: registry.counter("dse_run_generations_total", labels),
            phase_transitions: registry.counter("dse_run_phase_transitions_total", labels),
            promotions: registry.counter("dse_run_promotions_total", labels),
            promoted: registry.counter("dse_run_promoted_total", labels),
            fault_events: registry.counter("dse_run_fault_events_total", labels),
            checkpoints: registry.counter("dse_run_checkpoints_total", labels),
        }
    }
}

impl Sink for RegistrySink {
    fn record(&mut self, event: &RunEvent) {
        match event {
            RunEvent::GenerationEnd { .. } => self.generations.inc(),
            RunEvent::PhaseTransition { .. } => self.phase_transitions.inc(),
            RunEvent::Promotion { promoted, .. } => {
                self.promotions.inc();
                self.promoted.add(*promoted as u64);
            }
            RunEvent::EvaluationFault { .. } => self.fault_events.inc(),
            RunEvent::CheckpointWritten { .. } => self.checkpoints.inc(),
            RunEvent::PartitionFeasible { .. } | RunEvent::StageTiming { .. } => {}
        }
    }

    fn wants(&self, kind: EventKind) -> bool {
        matches!(
            kind,
            EventKind::GenerationEnd
                | EventKind::PhaseTransition
                | EventKind::Promotion
                | EventKind::EvaluationFault
                | EventKind::CheckpointWritten
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_events_drive_counters_and_gauges() {
        let registry = MetricsRegistry::new();
        let mut sink = RegistrySink::register(&registry, &[("arm", "sacga")]);
        sink.record(&RunEvent::GenerationEnd {
            generation: 1,
            phase: 2,
            temperature: 0.5,
            promoted: 3,
            feasible: 20,
            population: 32,
            evaluations: 64,
            front: vec![vec![1.0, 2.0], vec![2.0, 1.0]],
        });
        sink.record(&RunEvent::PhaseTransition {
            generation: 1,
            phase_index: 0,
            partitions: 5,
            span: 10,
        });
        sink.record(&RunEvent::Promotion {
            generation: 1,
            promoted: 3,
            candidates: 7,
        });
        sink.record(&RunEvent::CheckpointWritten { generation: 1 });
        let text = registry.render_text();
        assert!(text.contains("dse_run_generations_total{arm=\"sacga\"} 1"));
        assert!(text.contains("dse_run_phase_transitions_total{arm=\"sacga\"} 1"));
        assert!(text.contains("dse_run_promoted_total{arm=\"sacga\"} 3"));
        assert!(text.contains("dse_run_checkpoints_total{arm=\"sacga\"} 1"));
        // Six counters and no gauge.
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        assert_eq!(types.len(), 6, "{text}");
        assert!(types.iter().all(|l| l.ends_with(" counter")), "{text}");
    }

    #[test]
    fn wants_skips_expensive_unused_kinds() {
        let registry = MetricsRegistry::new();
        let sink = RegistrySink::register(&registry, &[]);
        assert!(sink.wants(EventKind::GenerationEnd));
        assert!(!sink.wants(EventKind::StageTiming));
        assert!(!sink.wants(EventKind::PartitionFeasible));
    }
}
