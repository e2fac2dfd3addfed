//! Per-generation stage timing for the run loops.
//!
//! Every optimizer generation decomposes into the same pipeline stages:
//! variation (gene drawing), evaluation (model calls), ranking (or
//! partitioning), promotion (annealed local→global moves) and survivor
//! selection. [`StageTimer`] measures wall-clock per stage so a run's
//! telemetry stream can report where each generation's time goes.
//!
//! A timer built disabled never reads the clock, so un-instrumented
//! runs pay only a branch per stage boundary. Timing never touches the optimizer's RNG or state — a run
//! with timing enabled produces bit-identical results to one without.

use std::time::Instant;

/// One stage of an optimizer generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Drawing offspring genes: parent selection, crossover, mutation.
    Variation,
    /// Evaluating candidate gene vectors against the model (includes
    /// cache lookups around the actual fan-out).
    Evaluation,
    /// Ranking or partitioning the merged population (non-dominated
    /// sort, crowding, per-partition cost ranking).
    Ranking,
    /// Annealed promotion of candidates from local to global
    /// competition (SACGA phase II; island migration).
    Promotion,
    /// Survivor selection truncating the merged population back to its
    /// target size.
    Selection,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Variation,
        Stage::Evaluation,
        Stage::Ranking,
        Stage::Promotion,
        Stage::Selection,
    ];

    /// Stable lowercase name, matching the JSONL wire format.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Variation => "variation",
            Stage::Evaluation => "evaluation",
            Stage::Ranking => "ranking",
            Stage::Promotion => "promotion",
            Stage::Selection => "selection",
        }
    }
}

/// Nanoseconds accumulated per stage over one generation (or any other
/// span drained by [`StageTimer::take`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Time drawing offspring genes.
    pub variation: u64,
    /// Time evaluating candidates (fan-out plus cache bookkeeping).
    pub evaluation: u64,
    /// Time ranking / partitioning the merged population.
    pub ranking: u64,
    /// Time deciding and applying promotions.
    pub promotion: u64,
    /// Time in survivor selection.
    pub selection: u64,
}

impl StageNanos {
    /// Nanoseconds recorded for `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Variation => self.variation,
            Stage::Evaluation => self.evaluation,
            Stage::Ranking => self.ranking,
            Stage::Promotion => self.promotion,
            Stage::Selection => self.selection,
        }
    }

    /// Sum across all stages (saturating).
    pub fn total(&self) -> u64 {
        self.variation
            .saturating_add(self.evaluation)
            .saturating_add(self.ranking)
            .saturating_add(self.promotion)
            .saturating_add(self.selection)
    }

    /// `true` when nothing has been recorded.
    pub fn is_zero(&self) -> bool {
        self.total() == 0
    }

    /// Folds another span's nanos into this one.
    pub fn merge(&mut self, other: &StageNanos) {
        self.variation = self.variation.saturating_add(other.variation);
        self.evaluation = self.evaluation.saturating_add(other.evaluation);
        self.ranking = self.ranking.saturating_add(other.ranking);
        self.promotion = self.promotion.saturating_add(other.promotion);
        self.selection = self.selection.saturating_add(other.selection);
    }

    fn add(&mut self, stage: Stage, nanos: u64) {
        match stage {
            Stage::Variation => self.variation = self.variation.saturating_add(nanos),
            Stage::Evaluation => self.evaluation = self.evaluation.saturating_add(nanos),
            Stage::Ranking => self.ranking = self.ranking.saturating_add(nanos),
            Stage::Promotion => self.promotion = self.promotion.saturating_add(nanos),
            Stage::Selection => self.selection = self.selection.saturating_add(nanos),
        }
    }
}

/// Accumulates per-stage wall-clock across one generation.
///
/// A disabled timer (the default) never reads the clock: [`start`],
/// [`stop`] and [`take`] all reduce to a branch, so loops can leave the
/// calls in place unconditionally and enable the timer only when a sink
/// actually wants timing events.
///
/// [`start`]: StageTimer::start
/// [`stop`]: StageTimer::stop
/// [`take`]: StageTimer::take
#[derive(Debug, Default)]
pub struct StageTimer {
    enabled: bool,
    open: Option<(Stage, Instant)>,
    acc: StageNanos,
}

impl StageTimer {
    /// A timer with recording switched on or off.
    pub fn new(enabled: bool) -> Self {
        StageTimer {
            enabled,
            open: None,
            acc: StageNanos::default(),
        }
    }

    /// Whether the timer records spans.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span for `stage`, closing (and recording) any span that
    /// was already open.
    pub fn start(&mut self, stage: Stage) {
        if !self.enabled {
            return;
        }
        self.stop();
        self.open = Some((stage, Instant::now()));
    }

    /// Closes the open span, if any, folding its elapsed time into the
    /// accumulator.
    pub fn stop(&mut self) {
        if let Some((stage, t0)) = self.open.take() {
            self.acc.add(stage, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Drains the accumulated nanos (closing any open span first) and
    /// resets the accumulator for the next generation.
    pub fn take(&mut self) -> StageNanos {
        self.stop();
        std::mem::take(&mut self.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        for mut t in [StageTimer::new(false), StageTimer::default()] {
            t.start(Stage::Variation);
            std::hint::black_box((0..1000).sum::<u64>());
            t.stop();
            assert!(t.take().is_zero());
            assert!(!t.is_enabled());
        }
    }

    #[test]
    fn enabled_timer_accumulates_per_stage() {
        let mut t = StageTimer::new(true);
        t.start(Stage::Variation);
        std::hint::black_box((0..1000).sum::<u64>());
        t.start(Stage::Evaluation);
        std::hint::black_box((0..1000).sum::<u64>());
        t.stop();
        let n = t.take();
        assert!(n.variation > 0);
        assert!(n.evaluation > 0);
        assert_eq!(n.ranking, 0);
        assert_eq!(n.total(), n.variation + n.evaluation);
        // Drained: the next take starts from zero.
        assert!(t.take().is_zero());
    }

    #[test]
    fn start_stop_spans_accumulate() {
        let mut t = StageTimer::new(true);
        t.start(Stage::Promotion);
        std::hint::black_box((0..1000).sum::<u64>());
        // Starting a new stage closes the previous span.
        t.start(Stage::Selection);
        std::hint::black_box((0..1000).sum::<u64>());
        let n = t.take();
        assert!(n.promotion > 0);
        assert!(n.selection > 0);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "variation",
                "evaluation",
                "ranking",
                "promotion",
                "selection"
            ]
        );
    }

    #[test]
    fn nanos_merge_and_get() {
        let mut a = StageNanos {
            variation: 1,
            evaluation: 2,
            ranking: 3,
            promotion: 4,
            selection: 5,
        };
        let b = StageNanos {
            variation: 10,
            ..StageNanos::default()
        };
        a.merge(&b);
        assert_eq!(a.get(Stage::Variation), 11);
        assert_eq!(a.total(), 25);
        assert!(!a.is_zero());
    }
}
