//! Analytic surrogate pre-screen: answer *obvious losers* from first-stage
//! hand analysis before the full integrator model runs.
//!
//! The full evaluation of one candidate costs an op-amp solve, a
//! drivable-load bisection (up to 18 per-load finishes of the integrator
//! analysis) and eight more solves for the robustness sweep. A
//! large fraction of uniformly-drawn candidates, however, fail for a
//! reason visible in two one-line estimates: the first-stage
//! transconductance cannot produce a usable gain-bandwidth, or the tail
//! current cannot slew the compensation capacitor anywhere near the clock
//! rate. This module builds [`engine::SurrogateScreen`]s that catch those
//! candidates with a deliberately *conservative* analytic bound and return
//! a pessimistic, fully-infeasible placeholder [`Evaluation`] instead of
//! running the model.
//!
//! The screen changes which candidates reach the full model, so it is
//! **opt-in** per run; with [`ScreenThresholds::never`] the screen answers
//! nothing and runs are byte-identical to unscreened ones (pinned by the
//! golden-master suite). Screened answers are counted in
//! [`engine::EngineStats::screened`] and never cached.

use crate::process::Process;
use crate::sizing::{DesignVector, NUM_PARAMS};
use engine::SurrogateScreen;
use moea::evaluation::Evaluation;

/// Lower bounds below which a candidate is answered by the surrogate.
///
/// Both are *floors on crude over-estimates*: the screen only fires when
/// even the optimistic hand estimate cannot reach the threshold, so a
/// fired screen implies the full model would have graded the candidate
/// infeasible as well.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenThresholds {
    /// Minimum first-stage gain-bandwidth estimate `gm1 / Cc` (rad/s).
    pub min_gbw: f64,
    /// Minimum internal slew-rate estimate `I_tail / Cc` (V/s).
    pub min_slew: f64,
}

impl ScreenThresholds {
    /// Thresholds that never fire: the screen becomes a provable no-op
    /// (every candidate passes to the full model).
    pub fn never() -> Self {
        ScreenThresholds {
            min_gbw: 0.0,
            min_slew: 0.0,
        }
    }

    /// Conservative production thresholds for the standard 2 MHz clock:
    /// roughly 15× below the gain-bandwidth and slew rate any feasible
    /// design needs to settle within half a clock period, so only
    /// hopeless corners of the space are screened.
    pub fn conservative() -> Self {
        ScreenThresholds {
            min_gbw: 5.0e6,
            min_slew: 1.0e6,
        }
    }
}

/// First-stage hand estimates for a decoded design: optimistic
/// `(gbw, slew)` in (rad/s, V/s).
///
/// `gm1` uses the square-law saturation estimate
/// `√(2 ·kp_n ·(W1/L1) ·I_tail/2)` — an over-estimate in the presence of
/// velocity saturation and mobility degradation, which is exactly the
/// direction a conservative screen needs.
pub fn first_stage_estimates(dv: &DesignVector, process: &Process) -> (f64, f64) {
    let gm1 = (2.0 * process.nmos.kp * (dv.w1 / dv.l1) * (0.5 * dv.itail)).sqrt();
    (gm1 / dv.cc, dv.itail / dv.cc)
}

/// Screens one decoded design: `Some(pessimistic placeholder)` when either
/// estimate falls below its threshold, `None` (run the full model)
/// otherwise.
pub fn screen_design(
    dv: &DesignVector,
    process: &Process,
    thresholds: &ScreenThresholds,
) -> Option<Evaluation> {
    let (gbw, slew) = first_stage_estimates(dv, process);
    if gbw < thresholds.min_gbw || slew < thresholds.min_slew {
        Some(pessimistic_placeholder(dv, process))
    } else {
        None
    }
}

/// The placeholder returned for screened candidates: no drivable load,
/// an estimated (pessimistic) power, and every constraint maximally
/// violated, so the placeholder can never dominate — or be mistaken for —
/// a genuinely evaluated design.
fn pessimistic_placeholder(dv: &DesignVector, process: &Process) -> Evaluation {
    let i2 = dv.itail * (dv.w7 / dv.l7) / (dv.w5 / dv.l5);
    let power = process.vdd * (1.5 * dv.itail + i2);
    Evaluation::new(vec![0.0, power], vec![1.0; 9])
}

/// A surrogate screen for [`crate::DrivableLoadProblem`] gene vectors
/// (sizing decode + layout quantization, exactly as the full evaluator
/// decodes them).
pub fn drivable_screen(
    process: &Process,
    thresholds: ScreenThresholds,
) -> SurrogateScreen<Evaluation> {
    let process = *process;
    SurrogateScreen::new("analytic-first-stage(drivable)", move |genes: &[f64]| {
        if genes.len() != NUM_PARAMS {
            return None;
        }
        let dv = DesignVector::from_sizing_genes(genes).quantize();
        screen_design(&dv, &process, &thresholds)
    })
}

/// A surrogate screen for [`crate::IntegratorProblem`] gene vectors
/// (plain decode, no quantization — matching that problem's evaluator).
pub fn integrator_screen(
    process: &Process,
    thresholds: ScreenThresholds,
) -> SurrogateScreen<Evaluation> {
    let process = *process;
    SurrogateScreen::new(
        "analytic-first-stage(integrator)",
        move |genes: &[f64]| {
            if genes.len() != NUM_PARAMS {
                return None;
            }
            let dv = DesignVector::from_genes(genes);
            screen_design(&dv, &process, &thresholds)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DrivableLoadProblem, Spec};
    use moea::Problem;

    fn starved_genes() -> Vec<f64> {
        // Minimum input pair and tail current against the maximum
        // compensation capacitor: cannot slew anything.
        let mut g = vec![0.5; NUM_PARAMS];
        g[0] = 0.0; // w1 min
        g[1] = 1.0; // l1 max
        g[10] = 0.0; // itail min
        g[11] = 1.0; // cc max
        g
    }

    #[test]
    fn never_thresholds_screen_nothing() {
        let screen = drivable_screen(&Process::nominal(), ScreenThresholds::never());
        assert!(screen.screen(&starved_genes()).is_none());
        assert!(screen.screen(&[0.5; NUM_PARAMS]).is_none());
    }

    #[test]
    fn conservative_thresholds_catch_starved_designs() {
        let screen = drivable_screen(&Process::nominal(), ScreenThresholds::conservative());
        let answer = screen.screen(&starved_genes());
        let ev = answer.expect("starved design must be screened");
        assert!(!ev.is_feasible());
        assert_eq!(ev.objectives()[0], 0.0);
        assert!(ev.objectives()[1] > 0.0);
    }

    #[test]
    fn healthy_designs_pass_to_the_full_model() {
        let screen = drivable_screen(&Process::nominal(), ScreenThresholds::conservative());
        let genes = DesignVector::reference().to_genes();
        assert!(screen.screen(&genes).is_none());
    }

    #[test]
    fn screened_candidates_are_infeasible_under_the_full_model() {
        // Soundness: anything the conservative screen answers would have
        // been graded infeasible by the full evaluator too.
        let p = DrivableLoadProblem::new(Spec::featured());
        let screen = drivable_screen(p.process(), ScreenThresholds::conservative());
        let mut candidates: Vec<Vec<f64>> = (0..48_u32)
            .map(|i| {
                (0..NUM_PARAMS)
                    .map(|j| (i as f64 * 7.31 + j as f64 * 0.613).sin() * 0.5 + 0.5)
                    .collect()
            })
            .collect();
        // Sprinkle in slew-starved corners (tiny tail current, big Cc) with
        // the remaining genes varied, so the screen is guaranteed to fire
        // on part of the set.
        for i in 0..16_u32 {
            let mut g: Vec<f64> = (0..NUM_PARAMS)
                .map(|j| (i as f64 * 3.77 + j as f64 * 1.09).sin() * 0.5 + 0.5)
                .collect();
            g[10] = 0.02 * i as f64 / 16.0; // itail near minimum
            g[11] = 1.0 - 0.02 * i as f64 / 16.0; // cc near maximum
            candidates.push(g);
        }
        let mut screened = 0;
        for (i, genes) in candidates.iter().enumerate() {
            if screen.screen(genes).is_some() {
                screened += 1;
                assert!(
                    !p.evaluate(genes).is_feasible(),
                    "screened candidate {i} was feasible under the full model"
                );
            }
        }
        assert!(screened > 0, "sample set never triggered the screen");
    }

    #[test]
    fn integrator_screen_decodes_without_quantization() {
        let screen = integrator_screen(&Process::nominal(), ScreenThresholds::conservative());
        assert!(screen.screen(&starved_genes()).is_some());
        assert!(
            screen.screen(&[0.1; 3]).is_none(),
            "foreign lengths pass through"
        );
    }
}
