//! Counts of the work a circuit evaluation does, kept only in unit-test
//! builds.
//!
//! Each exact cut to an evaluation leaves every result bit unchanged, so
//! the bit tests cannot notice when a later change brings the work back.
//! The model calls [`count`] where it does a unit of that work. In unit-test
//! builds each thread tallies them; everywhere else [`count`] is empty and
//! compiles to nothing. The tests below pin the totals of evaluations run
//! the way the circuit problems run them, through a fresh [`BiasMemo`], so a
//! change that adds work fails them.
//!
//! [`BiasMemo`]: crate::bias::BiasMemo

/// A unit of work [`count`] tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Work {
    /// One Newton step of a bias solve's root estimate.
    NewtonStep,
    /// One `Mosfet::id` call at a midpoint of a bias bisection.
    MidpointId,
    /// One exact set of V_GS-dependent drain-current terms: one per
    /// `Mosfet::id` call, one to three per operating point.
    GateTerms,
    /// One integrator analysis of the corner sweep.
    CornerAnalysis,
}

/// Tallies one `work` on this thread in unit-test builds.
#[inline(always)]
pub(crate) fn count(work: Work) {
    #[cfg(test)]
    counts::TALLY.with(|tally| {
        let mut counts = tally.get();
        match work {
            Work::NewtonStep => counts.newton_steps += 1,
            Work::MidpointId => counts.midpoint_ids += 1,
            Work::GateTerms => counts.gate_terms += 1,
            Work::CornerAnalysis => counts.corner_analyses += 1,
        }
        tally.set(counts);
    });
    #[cfg(not(test))]
    let _ = work;
}

#[cfg(test)]
pub(crate) use counts::{take, WorkCounts};

#[cfg(test)]
mod counts {
    use std::cell::Cell;

    /// This thread's tallies of each [`Work`](super::Work) kind.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct WorkCounts {
        pub newton_steps: u64,
        pub midpoint_ids: u64,
        pub gate_terms: u64,
        pub corner_analyses: u64,
    }

    thread_local! {
        pub(super) static TALLY: Cell<WorkCounts> = const {
            Cell::new(WorkCounts {
                newton_steps: 0,
                midpoint_ids: 0,
                gate_terms: 0,
                corner_analyses: 0,
            })
        };
    }

    /// This thread's tallies since the last call, which it resets.
    pub(crate) fn take() -> WorkCounts {
        TALLY.with(|tally| tally.replace(WorkCounts::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::{BiasMemo, SLOTS};
    use crate::sizing::DesignVector;
    use crate::{DrivableLoadProblem, IntegratorProblem, Spec};

    /// The work of evaluating each design in `designs` in turn through one
    /// fresh memo, the drivable-load problem first, both with `spec`:
    /// `((lookups, hits), counts)`.
    fn work_of(designs: &[DesignVector], spec: Spec) -> ((u64, u64), WorkCounts) {
        let memo = BiasMemo::with_slots(SLOTS);
        let drivable = DrivableLoadProblem::new(spec.clone());
        let integrator = IntegratorProblem::new(spec);
        take();
        for dv in designs {
            drivable.evaluate_quantized(dv, &memo);
            integrator.evaluate_with(dv, &memo);
        }
        (memo.counts(), take())
    }

    /// Sixteen quantized designs near the reference sizing, drawn from a
    /// fixed linear congruential sequence: most are biased, some drivable
    /// and some not, and their sweeps stop at different samples.
    fn fixed_designs() -> Vec<DesignVector> {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut reference = DesignVector::reference().to_genes();
        reference[14] = 0.5;
        (0..16)
            .map(|_| {
                let genes: Vec<f64> = reference
                    .iter()
                    .map(|&g| (g + 0.3 * (unit() - 0.5)).clamp(0.0, 1.0))
                    .collect();
                DesignVector::from_sizing_genes(&genes).quantize()
            })
            .collect()
    }

    #[test]
    fn counting_stays_on_its_thread_and_take_resets_it() {
        take();
        count(Work::NewtonStep);
        count(Work::GateTerms);
        count(Work::GateTerms);
        let counts = std::thread::spawn(|| {
            count(Work::CornerAnalysis);
            take()
        })
        .join()
        .unwrap();
        assert_eq!(counts.corner_analyses, 1);
        assert_eq!(counts.newton_steps + counts.gate_terms, 0);
        let counts = take();
        assert_eq!((counts.newton_steps, counts.gate_terms), (1, 2));
        assert_eq!(take(), WorkCounts::default());
    }

    #[test]
    fn reference_design_work_is_pinned() {
        let dv = DesignVector::reference();
        let (memo, counts) = work_of(&[dv], Spec::featured());
        assert_eq!(memo, (80, 52));
        assert_eq!(
            counts,
            WorkCounts {
                newton_steps: 110,
                midpoint_ids: 15,
                gate_terms: 247,
                corner_analyses: 14,
            }
        );
    }

    #[test]
    fn fixed_designs_work_is_pinned() {
        let (memo, counts) = work_of(&fixed_designs(), Spec::featured());
        assert_eq!(memo, (1310, 853));
        assert_eq!(
            counts,
            WorkCounts {
                newton_steps: 1800,
                midpoint_ids: 295,
                gate_terms: 4102,
                corner_analyses: 230,
            }
        );
    }
}
