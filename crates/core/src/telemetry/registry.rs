//! A [`Sink`] that bridges the [`RunEvent`] stream into a live
//! [`engine::MetricsRegistry`].
//!
//! Where the engine's own [`engine::EngineMetrics`] bundle mirrors
//! evaluation counters, this sink surfaces the *optimizer-level*
//! trajectory: generations completed, phase transitions, promotions,
//! fault episodes, checkpoints, and gauges for the current front size,
//! feasible count, population, cumulative evaluations, phase, and (when
//! a reference point is supplied) the feasible-front hypervolume.
//!
//! Like every sink, recording observes and never steers: events are
//! derived purely from optimizer state and constructing them consumes no
//! RNG, so attaching a `RegistrySink` leaves a seeded run bit-identical
//! to a bare one (pinned by the golden-master variants).

use engine::{Counter, Gauge, MetricsRegistry};
use moea::hypervolume::hypervolume;

use super::event::{EventKind, RunEvent};
use super::sink::Sink;

/// Bridges run events into counter/gauge handles registered under a
/// shared label set.
#[derive(Debug, Clone)]
pub struct RegistrySink {
    generations: Counter,
    phase_transitions: Counter,
    promotions: Counter,
    promoted: Counter,
    fault_events: Counter,
    checkpoints: Counter,
    front_size: Gauge,
    feasible: Gauge,
    population: Gauge,
    evaluations: Gauge,
    phase: Gauge,
    /// `(gauge, reference point)` when hypervolume tracking is enabled.
    hv: Option<(Gauge, Vec<f64>)>,
}

impl RegistrySink {
    /// Registers the run-trajectory metrics under `labels` in
    /// `registry`. Labels follow the registry's model (`tenant`, `job`,
    /// `arm`, `stage`; see [`engine::metrics::LABEL_NAMES`]).
    pub fn register(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        RegistrySink {
            generations: registry.counter("dse_run_generations_total", labels),
            phase_transitions: registry.counter("dse_run_phase_transitions_total", labels),
            promotions: registry.counter("dse_run_promotions_total", labels),
            promoted: registry.counter("dse_run_promoted_total", labels),
            fault_events: registry.counter("dse_run_fault_events_total", labels),
            checkpoints: registry.counter("dse_run_checkpoints_total", labels),
            front_size: registry.gauge("dse_run_front_size", labels),
            feasible: registry.gauge("dse_run_feasible", labels),
            population: registry.gauge("dse_run_population", labels),
            evaluations: registry.gauge("dse_run_evaluations", labels),
            phase: registry.gauge("dse_run_phase", labels),
            hv: None,
        }
    }

    /// Additionally tracks the feasible-front hypervolume against
    /// `ref_point` as a `dse_run_hypervolume` gauge, updated on every
    /// generation end. The same measure the
    /// [`StallDetector`](super::watchdog::StallDetector) watches — a flat
    /// trajectory here is the live view of a stalling run.
    pub fn with_hypervolume(
        mut self,
        registry: &MetricsRegistry,
        labels: &[(&str, &str)],
        ref_point: Vec<f64>,
    ) -> Self {
        self.hv = Some((registry.gauge("dse_run_hypervolume", labels), ref_point));
        self
    }
}

#[allow(clippy::cast_precision_loss)]
impl Sink for RegistrySink {
    fn record(&mut self, event: &RunEvent) {
        match event {
            RunEvent::GenerationEnd {
                phase,
                feasible,
                population,
                evaluations,
                front,
                ..
            } => {
                self.generations.inc();
                self.front_size.set(front.len() as f64);
                self.feasible.set(*feasible as f64);
                self.population.set(*population as f64);
                self.evaluations.set(*evaluations as f64);
                self.phase.set(f64::from(*phase));
                if let Some((gauge, ref_point)) = &self.hv {
                    gauge.set(hypervolume(front, ref_point));
                }
            }
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
        let mut sink = RegistrySink::register(&registry, &[("arm", "sacga")]).with_hypervolume(
            &registry,
            &[("arm", "sacga")],
            vec![10.0, 10.0],
        );
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
        assert!(text.contains("dse_run_front_size{arm=\"sacga\"} 2"));
        assert!(text.contains("dse_run_population{arm=\"sacga\"} 32"));
        // hv of {(1,2),(2,1)} against (10,10): 9*8 + (10-2)*(2-1) = 80.
        assert!(text.contains("dse_run_hypervolume{arm=\"sacga\"} 80"));
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
