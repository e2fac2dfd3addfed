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

use crate::bias::BiasMemo;
use crate::integrator::{self, ClockContext, IntegratorReport};
use crate::process::{Corner, Process};
use crate::sizing::DesignVector;
use crate::specs::Spec;
use crate::work::{self, Work};

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

/// The verdict of `dv` at each point of `plan`, in plan order: the one
/// sweep behind [`robustness_prepared`] and [`robustness_graded`]. Each
/// analysis runs only when its verdict is read, so a reader that stops
/// early skips the rest.
fn verdicts<'a>(
    dv: &'a DesignVector,
    plan: &'a [(SamplePoint, Process)],
    clock: &'a ClockContext,
    spec: &'a Spec,
    nominal: Option<&'a IntegratorReport>,
    memo: Option<&'a BiasMemo>,
) -> impl Iterator<Item = (SamplePoint, bool)> + 'a {
    plan.iter().map(move |(sp, process)| {
        let ok = match nominal {
            Some(report) if sp.is_nominal() => passes_performance(report, spec),
            _ => {
                work::count(Work::CornerAnalysis);
                let report = integrator::prepare_with(dv, process, clock, memo).at_load(dv.cl);
                passes_performance(&report, spec)
            }
        };
        (*sp, ok)
    })
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
///
/// `memo`, when given, serves the bias solves of the sample analyses (see
/// [`BiasMemo`]); the verdicts are the same either way.
pub fn robustness_prepared(
    dv: &DesignVector,
    plan: &[(SamplePoint, Process)],
    clock: &ClockContext,
    spec: &Spec,
    nominal: Option<&IntegratorReport>,
    memo: Option<&BiasMemo>,
) -> (f64, Vec<(SamplePoint, bool)>) {
    let outcomes: Vec<(SamplePoint, bool)> =
        verdicts(dv, plan, clock, spec, nominal, memo).collect();
    let passed = outcomes.iter().filter(|(_, ok)| *ok).count();
    (passed as f64 / outcomes.len() as f64, outcomes)
}

/// Robustness as the circuit problems grade it, against
/// `spec.robustness_min`: the sweep of [`robustness_prepared`], with the
/// same arguments, stopped once the samples passed so far make up
/// `spec.robustness_min` of the plan. The result is the fraction passed
/// when the sweep stopped, still divided by the plan's length.
///
/// A constraint reads robustness only through
/// [`relative_shortfall_at_least`](moea::evaluation::relative_shortfall_at_least)
/// at that bound, which is 0.0 for any value at or above it. Passes only
/// add up, so the full fraction is at or above the bound too, and both
/// give the same violation bits. When the full fraction is below the bound
/// the sweep never stops, and the two are equal. At the featured bound of
/// 0.85 the sweep stops after eight passes of the nine samples.
pub fn robustness_graded(
    dv: &DesignVector,
    plan: &[(SamplePoint, Process)],
    clock: &ClockContext,
    spec: &Spec,
    nominal: Option<&IntegratorReport>,
    memo: Option<&BiasMemo>,
) -> f64 {
    let total = plan.len() as f64;
    let mut verdicts = verdicts(dv, plan, clock, spec, nominal, memo);
    let mut passed = 0usize;
    // Checked before each verdict is read; a NaN bound never stops it.
    loop {
        if passed as f64 / total >= spec.robustness_min {
            break;
        }
        match verdicts.next() {
            Some((_, ok)) => passed += usize::from(ok),
            None => break,
        }
    }
    passed as f64 / total
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
    robustness_prepared(dv, &prepared_plan(nominal), clock, spec, None, None)
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
        let (a, da) = robustness_prepared(&dv, &plan, &clock, &spec, None, None);
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
    fn graded_sweep_stops_at_the_bound() {
        let dv = DesignVector::reference();
        let nominal = Process::nominal();
        let clock = ClockContext::standard();
        let plan = prepared_plan(&nominal);
        let report = integrator::analyze(&dv, &nominal, &clock);
        let mut spec = Spec::relaxed();
        let (full, detail) = robustness_prepared(&dv, &plan, &clock, &spec, Some(&report), None);
        assert!(detail[..5].iter().all(|&(_, ok)| ok), "{detail:?}");
        assert!(full > 5.0 / 9.0);
        // The sweep reads the free nominal verdict and four corner
        // analyses, then stops: 5 of 9 passes reach 0.5.
        spec.robustness_min = 0.5;
        work::take();
        let graded = robustness_graded(&dv, &plan, &clock, &spec, Some(&report), None);
        assert_eq!(graded, 5.0 / 9.0);
        assert_eq!(work::take().corner_analyses, 4);
        // A bound of zero needs no sample, one above 1 every sample.
        spec.robustness_min = 0.0;
        assert_eq!(
            robustness_graded(&dv, &plan, &clock, &spec, Some(&report), None),
            0.0
        );
        assert_eq!(work::take().corner_analyses, 0);
        spec.robustness_min = 1.01;
        assert_eq!(
            robustness_graded(&dv, &plan, &clock, &spec, Some(&report), None),
            full
        );
        assert_eq!(work::take().corner_analyses, 8);
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
