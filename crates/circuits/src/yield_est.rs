//! Robustness ("yield") estimation across manufacturing corners and local
//! mismatch.
//!
//! The paper constrains a "Yield Calculation \[6\] (Robustness)" figure; the
//! referenced HOLMES methodology is proprietary, so this module substitutes
//! a deterministic corner × mismatch sweep (see `DESIGN.md` §4): the design
//! is re-analyzed at every process corner plus a small set of
//! low-discrepancy local-mismatch points, and robustness is the fraction of
//! sample points at which all specification constraints hold. The sample
//! set is fixed, so the figure is deterministic and smooth enough for a GA
//! to climb.

use crate::integrator::{self, ClockContext, IntegratorReport};
use crate::process::{Corner, Process};
use crate::sizing::DesignVector;
use crate::specs::Spec;

/// One robustness sample point: a corner plus local mismatch offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Manufacturing corner.
    pub corner: Corner,
    /// NMOS threshold shift (V).
    pub dvt_n: f64,
    /// PMOS threshold shift (V).
    pub dvt_p: f64,
    /// Relative mobility/kp shift.
    pub dkp: f64,
}

impl SamplePoint {
    /// `true` for the TT corner with zero mismatch. Every skew that sample
    /// applies multiplies by exactly 1.0 or adds exactly 0.0, so its
    /// process in [`prepared_plan`] is the nominal process bit for bit
    /// (the lone exception, a −0.0 threshold turning into +0.0, is not a
    /// process anyone builds), and an analysis the caller already holds
    /// at the nominal process stands in for it exactly.
    pub fn is_nominal(&self) -> bool {
        self.corner == Corner::Tt && self.dvt_n == 0.0 && self.dvt_p == 0.0 && self.dkp == 0.0
    }
}

/// The deterministic sample plan used by [`robustness`]: the five corners
/// at zero mismatch, plus four mismatch-heavy TT points arranged on a
/// low-discrepancy cross (±12 mV thresholds, ∓6 % mobility).
pub fn sample_plan() -> Vec<SamplePoint> {
    let mut plan: Vec<SamplePoint> = Corner::ALL
        .iter()
        .map(|&corner| SamplePoint {
            corner,
            dvt_n: 0.0,
            dvt_p: 0.0,
            dkp: 0.0,
        })
        .collect();
    let mm = 0.012;
    let dk = 0.06;
    plan.push(SamplePoint {
        corner: Corner::Tt,
        dvt_n: mm,
        dvt_p: -mm,
        dkp: -dk,
    });
    plan.push(SamplePoint {
        corner: Corner::Tt,
        dvt_n: -mm,
        dvt_p: mm,
        dkp: dk,
    });
    plan.push(SamplePoint {
        corner: Corner::Tt,
        dvt_n: mm,
        dvt_p: mm,
        dkp: -dk,
    });
    plan.push(SamplePoint {
        corner: Corner::Tt,
        dvt_n: -mm,
        dvt_p: -mm,
        dkp: dk,
    });
    plan
}

/// `true` when `report` satisfies every *performance* constraint of `spec`
/// (DR, OR, ST, SE, saturation margin). Robustness itself and area are
/// global properties, not per-sample ones.
pub fn passes_performance(report: &IntegratorReport, spec: &Spec) -> bool {
    report.is_biased()
        && report.dynamic_range_db >= spec.dr_min_db
        && report.output_range >= spec.or_min_v
        && report.settling_time <= spec.st_max
        && report.settling_error <= spec.se_max
        && report.opamp.sat_margin >= spec.sat_margin_min
}

/// The [`sample_plan`] with the skewed [`Process`] of every sample point
/// already built. Deriving the nine corner/mismatch process descriptions
/// is design-independent, so the circuit problems build this table once,
/// when they are constructed or given a new process, and every
/// evaluation reads it.
pub fn prepared_plan(nominal: &Process) -> Vec<(SamplePoint, Process)> {
    sample_plan()
        .into_iter()
        .map(|sp| {
            let process = nominal
                .at_corner(sp.corner)
                .with_mismatch(sp.dvt_n, sp.dvt_p, sp.dkp);
            (sp, process)
        })
        .collect()
}

/// Robustness of a design against a pre-built sample table (see
/// [`prepared_plan`]): the fraction of points at which all performance
/// constraints of `spec` hold, plus the per-sample verdicts.
///
/// `nominal`, when given, must be the [`integrator::analyze`] report of
/// `dv` at the process `plan` was built from. The
/// [`SamplePoint::is_nominal`] sample then takes its verdict from that
/// report instead of solving the design again: one analysis fewer, the
/// same verdicts.
pub fn robustness_prepared(
    dv: &DesignVector,
    plan: &[(SamplePoint, Process)],
    clock: &ClockContext,
    spec: &Spec,
    nominal: Option<&IntegratorReport>,
) -> (f64, Vec<(SamplePoint, bool)>) {
    let mut outcomes = Vec::with_capacity(plan.len());
    let mut passed = 0usize;
    for (sp, process) in plan {
        let ok = match nominal {
            Some(report) if sp.is_nominal() => passes_performance(report, spec),
            _ => passes_performance(&integrator::analyze(dv, process, clock), spec),
        };
        if ok {
            passed += 1;
        }
        outcomes.push((*sp, ok));
    }
    (passed as f64 / outcomes.len() as f64, outcomes)
}

/// Robustness of a design: the fraction of [`sample_plan`] points at which
/// all performance constraints of `spec` hold. Returns a value in `[0, 1]`
/// together with the per-sample reports (for diagnostics).
pub fn robustness_detailed(
    dv: &DesignVector,
    nominal: &Process,
    clock: &ClockContext,
    spec: &Spec,
) -> (f64, Vec<(SamplePoint, bool)>) {
    robustness_prepared(dv, &prepared_plan(nominal), clock, spec, None)
}

/// Robustness of a design (just the fraction). See [`robustness_detailed`].
pub fn robustness(dv: &DesignVector, nominal: &Process, clock: &ClockContext, spec: &Spec) -> f64 {
    robustness_detailed(dv, nominal, clock, spec).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_all_corners_plus_mismatch() {
        let plan = sample_plan();
        assert_eq!(plan.len(), 9);
        for c in Corner::ALL {
            assert!(plan.iter().any(|s| s.corner == c));
        }
        assert!(plan.iter().filter(|s| s.dvt_n != 0.0).count() == 4);
    }

    #[test]
    fn reference_design_is_robust_for_relaxed_spec() {
        let dv = DesignVector::reference();
        let r = robustness(
            &dv,
            &Process::nominal(),
            &ClockContext::standard(),
            &Spec::relaxed(),
        );
        assert!(r > 0.8, "robustness {r}");
    }

    #[test]
    fn impossible_spec_gives_zero_robustness() {
        let dv = DesignVector::reference();
        let mut spec = Spec::featured();
        spec.dr_min_db = 200.0;
        let r = robustness(&dv, &Process::nominal(), &ClockContext::standard(), &spec);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn robustness_is_deterministic() {
        let dv = DesignVector::reference();
        let spec = Spec::featured();
        let a = robustness(&dv, &Process::nominal(), &ClockContext::standard(), &spec);
        let b = robustness(&dv, &Process::nominal(), &ClockContext::standard(), &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn prepared_plan_matches_per_call_construction() {
        let dv = DesignVector::reference();
        let spec = Spec::featured();
        let nominal = Process::nominal();
        let clock = ClockContext::standard();
        let plan = prepared_plan(&nominal);
        let (a, da) = robustness_prepared(&dv, &plan, &clock, &spec, None);
        let (b, db) = robustness_detailed(&dv, &nominal, &clock, &spec);
        assert_eq!(a, b);
        assert_eq!(da, db);
    }

    #[test]
    fn detailed_outcomes_match_fraction() {
        let dv = DesignVector::reference();
        let spec = Spec::relaxed();
        let (frac, detail) =
            robustness_detailed(&dv, &Process::nominal(), &ClockContext::standard(), &spec);
        let count = detail.iter().filter(|(_, ok)| *ok).count();
        assert!((frac - count as f64 / detail.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn broken_design_fails_everywhere() {
        let mut dv = DesignVector::reference();
        dv.itail = 500e-6;
        dv.w5 = 2e-6;
        dv.l5 = 1.5e-6;
        let r = robustness(
            &dv,
            &Process::nominal(),
            &ClockContext::standard(),
            &Spec::relaxed(),
        );
        assert_eq!(r, 0.0);
    }
}
