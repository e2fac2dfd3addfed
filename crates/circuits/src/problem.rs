//! The sizing optimization problem of the paper as a [`moea::Problem`]:
//! **minimize power, maximize drivable load capacitance** under the full
//! specification constraint set.
//!
//! Internally both objectives are minimized (`f0 = −C_L`, `f1 = P`);
//! reporting helpers convert to the paper's axes (C_L in pF on x, power in
//! W on y) and to the paper's hypervolume units (0.1 mW · pF).

use crate::bias::BiasMemo;
use crate::integrator::{self, ClockContext, IntegratorReport};
use crate::process::Process;
use crate::sizing::{DesignVector, NUM_PARAMS};
use crate::specs::Spec;
use crate::yield_est::{self, SamplePoint};
use moea::evaluation::{Evaluation, ViolationBuilder};
use moea::individual::Individual;
use moea::problem::{Bounds, Problem};

/// Number of inequality constraints the problem declares.
pub const NUM_CONSTRAINTS: usize = 9;

/// The integrator sizing problem.
///
/// # Examples
///
/// ```
/// use analog_circuits::{IntegratorProblem, Spec};
/// use moea::Problem;
///
/// let p = IntegratorProblem::new(Spec::relaxed());
/// let ev = p.evaluate(&[0.5; 15]);
/// assert_eq!(ev.objectives().len(), 2);
/// assert_eq!(ev.constraint_violations().len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct IntegratorProblem {
    spec: Spec,
    process: Process,
    clock: ClockContext,
    bounds: Bounds,
    name: String,
    /// The robustness sweep's corner/mismatch processes, built from
    /// `process` once (see [`yield_est::prepared_plan`]).
    plan: Vec<(SamplePoint, Process)>,
}

impl IntegratorProblem {
    /// Creates the problem for a specification with the nominal process and
    /// standard clock.
    pub fn new(spec: Spec) -> Self {
        let name = format!("integrator-sizing({})", spec.name);
        let process = Process::nominal();
        IntegratorProblem {
            spec,
            plan: yield_est::prepared_plan(&process),
            process,
            clock: ClockContext::standard(),
            bounds: DesignVector::gene_bounds(),
            name,
        }
    }

    /// Replaces the process description (and rebuilds the corner plan).
    pub fn with_process(mut self, process: Process) -> Self {
        self.plan = yield_est::prepared_plan(&process);
        self.process = process;
        self
    }

    /// The specification being targeted.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The nominal process in use.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The clock context in use.
    pub fn clock(&self) -> &ClockContext {
        &self.clock
    }

    /// Full nominal-corner report for a gene vector (diagnostics, examples).
    pub fn report(&self, genes: &[f64]) -> IntegratorReport {
        let dv = DesignVector::from_genes(genes);
        integrator::analyze(&dv, &self.process, &self.clock)
    }

    /// Robustness of a gene vector under this problem's spec.
    pub fn robustness(&self, genes: &[f64]) -> f64 {
        let dv = DesignVector::from_genes(genes);
        yield_est::robustness(&dv, &self.process, &self.clock, &self.spec)
    }

    /// Evaluates a decoded design (shared by [`Problem::evaluate`]). The
    /// process-wide [`BiasMemo`] serves every op-amp bias solve.
    pub fn evaluate_design(&self, dv: &DesignVector) -> Evaluation {
        self.evaluate_with(dv, BiasMemo::shared())
    }

    /// [`evaluate_design`](Self::evaluate_design) with the bias solves
    /// served by `memo`.
    pub(crate) fn evaluate_with(&self, dv: &DesignVector, memo: &BiasMemo) -> Evaluation {
        let memo = Some(memo);
        let report = integrator::prepare_with(dv, &self.process, &self.clock, memo).at_load(dv.cl);

        // Robustness: the nominal report stands in for the TT sample; skip
        // the 8 corner analyses when the nominal point is not even biased —
        // it cannot pass anywhere — and stop the sweep at the bound.
        let robustness = if report.is_biased() {
            yield_est::robustness_graded(
                dv,
                &self.plan,
                &self.clock,
                &self.spec,
                Some(&report),
                memo,
            )
        } else {
            0.0
        };

        let spec = &self.spec;
        let mut v = ViolationBuilder::new();
        v.at_least(report.dynamic_range_db, spec.dr_min_db); // 1 DR
        v.at_least(report.output_range, spec.or_min_v); // 2 OR
        v.at_most(report.settling_time, spec.st_max); // 3 ST
        v.at_most(report.settling_error, spec.se_max); // 4 SE
        v.at_most(report.area, spec.area_max); // 5 area
        v.at_least(report.opamp.sat_margin, spec.sat_margin_min); // 6 regions
        v.at_least(robustness, spec.robustness_min); // 7 yield
                                                     // 8: matching / systematic offset below 2 mV input-referred.
        v.at_most(report.opamp.systematic_offset, 2e-3);
        // 9: stability — non-dominant pole at least 1.5× the crossover.
        v.at_least(report.p2, 1.5 * report.omega_c); // 9 phase margin

        // Objectives: maximize C_L (minimize −C_L), minimize power.
        Evaluation::new(vec![-report.cl, report.power], v.finish())
    }

    /// Converts an internal objective vector to the paper's reporting axes:
    /// `(load capacitance in pF, power in W)`.
    pub fn to_paper_axes(objectives: &[f64]) -> (f64, f64) {
        (-objectives[0] * 1e12, objectives[1])
    }

    /// Power ceiling (in 0.1 mW units) charged for load ranges the front
    /// does not cover at all; roughly the worst power of any plausible
    /// constraint-satisfying design.
    pub const HV_POWER_CEILING: f64 = 12.0;

    /// The paper's hypervolume metric of a front (0.1 mW · pF units,
    /// **lower = better**).
    ///
    /// Sec. 4.2 describes a union of boxes anchored at the origin, lower
    /// being better. Taken literally on axes where power grows with load,
    /// that union degenerates to the single largest box; the magnitudes the
    /// paper reports (≈ 20–40) instead match the *uncovered-region area*
    ///
    /// ```text
    /// HV = ∫₀^{C_max} P_front(C) dC,
    /// P_front(C) = min { P_i : C_L,i ≥ C },
    /// ```
    ///
    /// i.e. the integral of the cheapest power able to drive each load
    /// requirement, with [`HV_POWER_CEILING`](Self::HV_POWER_CEILING)
    /// charged where no solution covers the load at all. This is the
    /// complement of the conventional dominated hypervolume w.r.t. the
    /// reference `(C = 0, P = ceiling)`, so it is simultaneously
    /// convergence-sensitive (lower power ⇒ lower HV) and
    /// diversity-sensitive (missing low-load coverage keeps the staircase
    /// at the expensive clustered power level). `EXPERIMENTS.md` discusses
    /// the interpretation.
    pub fn paper_hypervolume(front: &[Individual]) -> f64 {
        let c_max = crate::sizing::CL_RANGE.1 * 1e12; // pF
        let mut pts: Vec<[f64; 2]> = front
            .iter()
            .map(|m| {
                let (cl_pf, power_w) = Self::to_paper_axes(m.objectives());
                [cl_pf.min(c_max), power_w * 1e4]
            })
            .filter(|p| p[0].is_finite() && p[1].is_finite())
            .collect();
        // Sweep from the maximum load downward, integrating the cheapest
        // power that covers each load level.
        pts.sort_by(|a, b| b[0].partial_cmp(&a[0]).unwrap_or(std::cmp::Ordering::Equal));
        let mut area = 0.0;
        let mut cur_c = c_max;
        let mut cur_p = Self::HV_POWER_CEILING;
        for p in &pts {
            if p[0] < cur_c {
                area += (cur_c - p[0]) * cur_p;
                cur_c = p[0];
            }
            cur_p = cur_p.min(p[1]);
        }
        area + cur_c.max(0.0) * cur_p
    }
}

impl Problem for IntegratorProblem {
    fn name(&self) -> &str {
        &self.name
    }

    fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    fn num_objectives(&self) -> usize {
        2
    }

    fn num_constraints(&self) -> usize {
        NUM_CONSTRAINTS
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        debug_assert_eq!(x.len(), NUM_PARAMS);
        let dv = DesignVector::from_genes(x);
        self.evaluate_design(&dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moea::evaluation::Evaluation as Ev;

    fn reference_genes() -> Vec<f64> {
        DesignVector::reference().to_genes()
    }

    #[test]
    fn declares_15_vars_2_objs_9_constraints() {
        let p = IntegratorProblem::new(Spec::featured());
        assert_eq!(p.num_variables(), 15);
        assert_eq!(p.num_objectives(), 2);
        assert_eq!(p.num_constraints(), NUM_CONSTRAINTS);
    }

    #[test]
    fn reference_design_feasible_under_relaxed_spec() {
        let p = IntegratorProblem::new(Spec::relaxed());
        let ev = p.evaluate(&reference_genes());
        assert!(
            ev.is_feasible(),
            "violations: {:?}",
            ev.constraint_violations()
        );
    }

    #[test]
    fn objectives_are_negload_and_power() {
        let p = IntegratorProblem::new(Spec::relaxed());
        let genes = reference_genes();
        let ev = p.evaluate(&genes);
        let report = p.report(&genes);
        assert!((ev.objectives()[0] + report.cl).abs() < 1e-18);
        assert!((ev.objectives()[1] - report.power).abs() < 1e-12);
    }

    #[test]
    fn paper_axes_conversion() {
        let (cl_pf, p_w) = IntegratorProblem::to_paper_axes(&[-2e-12, 5e-4]);
        assert!((cl_pf - 2.0).abs() < 1e-9);
        assert!((p_w - 5e-4).abs() < 1e-15);
    }

    #[test]
    fn paper_hypervolume_prefers_better_fronts() {
        let ind = |cl_pf: f64, p_mw: f64| {
            Individual::new(
                vec![0.0],
                Ev::unconstrained(vec![-cl_pf * 1e-12, p_mw * 1e-3]),
            )
        };
        // A front that reaches high load at low power…
        let good = vec![ind(1.0, 0.4), ind(3.0, 0.55), ind(5.0, 0.7)];
        // …must beat a clustered, higher-power front.
        let bad = vec![ind(4.2, 0.9), ind(4.6, 0.92), ind(5.0, 0.95)];
        let hv_good = IntegratorProblem::paper_hypervolume(&good);
        let hv_bad = IntegratorProblem::paper_hypervolume(&bad);
        assert!(
            hv_good < hv_bad,
            "paper hypervolume should be lower for the better front: {hv_good} vs {hv_bad}"
        );
        // And the magnitudes should be in the paper's ballpark (tens).
        assert!(hv_good > 5.0 && hv_bad < 60.0, "{hv_good} {hv_bad}");
    }

    #[test]
    fn infeasible_design_reports_violations() {
        let p = IntegratorProblem::new(Spec::featured());
        // All-min genes: minimum widths/currents cannot meet the spec.
        let ev = p.evaluate(&[0.0; 15]);
        assert!(!ev.is_feasible());
        assert!(ev.total_violation() > 0.0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = IntegratorProblem::new(Spec::featured());
        let genes = vec![0.37; 15];
        let a = p.evaluate(&genes);
        let b = p.evaluate(&genes);
        assert_eq!(a, b);
    }

    #[test]
    fn harder_spec_cannot_be_easier() {
        let genes = reference_genes();
        let easy = IntegratorProblem::new(Spec::relaxed()).evaluate(&genes);
        let hard = IntegratorProblem::new(Spec::featured()).evaluate(&genes);
        assert!(hard.total_violation() >= easy.total_violation() - 1e-12);
    }

    #[test]
    fn report_accessor_matches_evaluation_power() {
        let p = IntegratorProblem::new(Spec::relaxed());
        let genes = vec![0.6; 15];
        let report = p.report(&genes);
        let ev = p.evaluate(&genes);
        assert!((report.power - ev.objectives()[1]).abs() < 1e-15);
    }

    #[test]
    fn check_evaluation_shape() {
        let p = IntegratorProblem::new(Spec::featured());
        let ev = p.evaluate(&[0.5; 15]);
        assert!(p.check_evaluation(&ev).is_ok());
    }
}
