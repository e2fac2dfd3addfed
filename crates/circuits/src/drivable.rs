//! The **drivable-load** formulation of the sizing problem — the variant
//! used by every paper-figure experiment.
//!
//! Here the load capacitance is not a free decision variable but a derived
//! performance figure: the *maximum* load the sizing can drive while
//! meeting the load-dependent constraints (settling time, settling error,
//! stability margin) with a safety margin. Those three quantities are
//! monotone in the load, so the drivable load is found exactly by
//! bisection.
//!
//! This matches the engineering question behind the paper's design-surface
//! methodology — "what load can this sizing serve, and at what power?" —
//! and it makes the load axis *hard to traverse*: moving a design along
//! the front requires re-sizing the output stage, compensation and bias
//! network coherently, which is precisely the regime where a purely global
//! GA loses front diversity (Sec. 3 of the paper) and partition-protected
//! local competition pays off.
//!
//! The 15 decision parameters are the 14 sizing parameters of
//! [`DesignVector`] plus the input common-mode voltage (gene 15).

use crate::integrator::{self, ClockContext, IntegratorReport, IntegratorStage};
use crate::problem::IntegratorProblem;
use crate::process::Process;
use crate::sizing::{DesignVector, CL_RANGE, NUM_PARAMS};
use crate::specs::Spec;
use crate::yield_est::{self, SamplePoint};
use moea::evaluation::{Evaluation, ViolationBuilder};
use moea::individual::Individual;
use moea::problem::{Bounds, Problem};

/// Safety margin applied to the load-dependent constraints during the
/// drivable-load bisection: the nominal design must meet `margin × spec`
/// so that process corners retain headroom.
pub const LOAD_MARGIN: f64 = 0.8;

/// Required non-dominant-pole to crossover ratio for stability.
pub const STABILITY_RATIO: f64 = 1.5;

/// Bisection steps for the drivable load (resolution ≈ 5 pF / 2⁹ ≈ 10 fF).
const BISECTION_STEPS: usize = 9;

/// The drivable-load sizing problem (2 objectives: maximize drivable load,
/// minimize power; 9 constraints).
///
/// # Examples
///
/// ```
/// use analog_circuits::drivable::DrivableLoadProblem;
/// use analog_circuits::Spec;
/// use moea::Problem;
///
/// let p = DrivableLoadProblem::new(Spec::featured());
/// let ev = p.evaluate(&vec![0.5; 15]);
/// assert_eq!(ev.objectives().len(), 2);
/// assert_eq!(ev.constraint_violations().len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct DrivableLoadProblem {
    spec: Spec,
    process: Process,
    clock: ClockContext,
    bounds: Bounds,
    name: String,
    /// The robustness sweep's corner/mismatch processes, built from
    /// `process` once (see [`yield_est::prepared_plan`]).
    plan: Vec<(SamplePoint, Process)>,
}

impl DrivableLoadProblem {
    /// Creates the problem for a specification with the nominal process
    /// and standard clock.
    pub fn new(spec: Spec) -> Self {
        let name = format!("integrator-drivable-load({})", spec.name);
        let process = Process::nominal();
        DrivableLoadProblem {
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

    /// Replaces the clock context.
    pub fn with_clock(mut self, clock: ClockContext) -> Self {
        self.clock = clock;
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

    /// `true` when `report` meets the load-dependent constraints with the
    /// bisection margin.
    fn load_ok(&self, report: &IntegratorReport) -> bool {
        report.is_biased()
            && report.settling_time <= LOAD_MARGIN * self.spec.st_max
            && report.settling_error <= LOAD_MARGIN * self.spec.se_max
            && report.p2 >= STABILITY_RATIO * report.omega_c
    }

    /// Computes the drivable load of a sizing: the largest `C_L` in the
    /// exploration range meeting the margined load-dependent constraints,
    /// or `None` when no load in the range can be driven.
    ///
    /// Settling time is *mostly* monotone in the load, but a heavily
    /// overdamped design can settle faster as the closed-loop pole pair
    /// coalesces, so the feasible-load set may exclude light loads. The
    /// search therefore anchors on a coarse top-down scan before bisecting
    /// the upper feasibility edge.
    ///
    /// Returns the load together with the report *at* that load. The
    /// op-amp is solved once; every probe reuses the prepared stage.
    pub fn drivable_load(&self, dv: &DesignVector) -> Option<(f64, IntegratorReport)> {
        self.search_load(&self.prepare(dv))
    }

    fn prepare(&self, dv: &DesignVector) -> IntegratorStage {
        integrator::prepare(dv, &self.process, &self.clock)
    }

    /// The [`drivable_load`](Self::drivable_load) search on a prepared
    /// stage: ≤ 18 load probes, none of which re-solves the op-amp.
    fn search_load(&self, stage: &IntegratorStage) -> Option<(f64, IntegratorReport)> {
        let report_max = stage.at_load(CL_RANGE.1);
        if self.load_ok(&report_max) {
            return Some((CL_RANGE.1, report_max));
        }
        // Coarse scan from the top for the highest feasible anchor.
        const SCAN: usize = 8;
        let step = (CL_RANGE.1 - CL_RANGE.0) / SCAN as f64;
        let mut anchor: Option<(f64, IntegratorReport)> = None;
        let mut infeasible_above = CL_RANGE.1;
        for k in (0..SCAN).rev() {
            let cl = CL_RANGE.0 + k as f64 * step;
            let r = stage.at_load(cl);
            if self.load_ok(&r) {
                anchor = Some((cl, r));
                break;
            }
            infeasible_above = cl;
        }
        let (mut lo, mut best) = anchor?;
        let mut hi = infeasible_above;
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            let r = stage.at_load(mid);
            if self.load_ok(&r) {
                lo = mid;
                best = r;
            } else {
                hi = mid;
            }
        }
        Some((lo, best))
    }

    /// The load a prepared design is graded at and its report there: the
    /// drivable load, or `0.0` with the report at the minimum load
    /// `CL_RANGE.0` when nothing is drivable, so the GA keeps a gradient
    /// toward drivability. Both [`report`](Self::report) and evaluation
    /// go through here, so the diagnostic report is what evaluation grades.
    fn graded_load(&self, stage: &IntegratorStage) -> (f64, IntegratorReport) {
        self.search_load(stage)
            .unwrap_or_else(|| (0.0, stage.at_load(CL_RANGE.0)))
    }

    /// Full diagnostic report at the drivable load (minimum-load report
    /// when nothing is drivable).
    pub fn report(&self, genes: &[f64]) -> IntegratorReport {
        let dv = DesignVector::from_sizing_genes(genes).quantize();
        self.graded_load(&self.prepare(&dv)).1
    }

    /// Converts internal objectives to the paper axes; delegates to
    /// [`IntegratorProblem::to_paper_axes`].
    pub fn to_paper_axes(objectives: &[f64]) -> (f64, f64) {
        IntegratorProblem::to_paper_axes(objectives)
    }

    /// The paper's hypervolume metric; delegates to
    /// [`IntegratorProblem::paper_hypervolume`].
    pub fn paper_hypervolume(front: &[Individual]) -> f64 {
        IntegratorProblem::paper_hypervolume(front)
    }

    /// The partitioned objective range in internal (minimized)
    /// coordinates: `f0 = −C_L` over the 0–5 pF exploration range.
    pub fn slice_range() -> (f64, f64) {
        (-CL_RANGE.1, 0.0)
    }

    /// Evaluates one already-decoded, already-quantized design.
    fn evaluate_quantized(&self, dv: &DesignVector) -> Evaluation {
        let spec = &self.spec;

        let (cl, report) = self.graded_load(&self.prepare(dv));
        let drivable = cl > 0.0;

        // Robustness at the claimed operating point (full, unmargined
        // spec): corner headroom must come from the LOAD_MARGIN. `report`
        // is the nominal analysis at that load, so it stands in for the
        // TT sample.
        let dv_at = dv.with_cl(report.cl);
        let robustness = if report.is_biased() {
            yield_est::robustness_prepared(&dv_at, &self.plan, &self.clock, spec, Some(&report)).0
        } else {
            0.0
        };

        let mut v = ViolationBuilder::new();
        v.at_least(report.dynamic_range_db, spec.dr_min_db); // 1 DR
        v.at_least(report.output_range, spec.or_min_v); // 2 OR
                                                        // 3–5: drivability at the minimum load (zero once drivable).
        if drivable {
            v.require(true).require(true).require(true);
        } else {
            v.at_most(report.settling_time, LOAD_MARGIN * spec.st_max);
            v.at_most(report.settling_error, LOAD_MARGIN * spec.se_max);
            v.at_least(report.p2, STABILITY_RATIO * report.omega_c);
        }
        v.at_most(report.area, spec.area_max); // 6 area
        v.at_least(report.opamp.sat_margin, spec.sat_margin_min); // 7 regions
        v.at_most(report.opamp.systematic_offset, 2e-3); // 8 matching
        v.at_least(robustness, spec.robustness_min); // 9 yield

        Evaluation::new(vec![-cl, report.power], v.finish())
    }
}

/// Cache canonicalizer for the drivable-load gene encoding: collapses every
/// raw gene vector onto the genes of its *quantized* design (unit fingers,
/// unit capacitors, bias-DAC steps), so candidates that decode to the same
/// manufactured sizing share one cache entry. Gene 15 (input common-mode)
/// is continuous — it is passed through clamped, not re-derived, because
/// [`DesignVector::to_genes`] slot 14 encodes the load capacitance, which
/// the drivable-load formulation does not take from the genome.
pub fn canonical_sizing_genes(genes: &[f64]) -> Vec<f64> {
    if genes.len() != NUM_PARAMS {
        return genes.to_vec();
    }
    let dv = DesignVector::from_sizing_genes(genes).quantize();
    let mut basis = dv.to_genes();
    basis[NUM_PARAMS - 1] = genes[NUM_PARAMS - 1].clamp(0.0, 1.0);
    basis
}

impl Problem for DrivableLoadProblem {
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
        9
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        debug_assert_eq!(x.len(), NUM_PARAMS);
        // Designs are evaluated as they would be drawn: unit fingers, unit
        // capacitors, bias-DAC steps (see [`DesignVector::quantize`]).
        let dv = DesignVector::from_sizing_genes(x).quantize();
        self.evaluate_quantized(&dv)
    }

    fn cache_canonicalizer(&self) -> Option<engine::CacheCanonicalizer> {
        Some(canonical_sizing_genes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_15_vars_2_objs_9_constraints() {
        let p = DrivableLoadProblem::new(Spec::featured());
        assert_eq!(p.num_variables(), 15);
        assert_eq!(p.num_objectives(), 2);
        assert_eq!(p.num_constraints(), 9);
    }

    #[test]
    fn reference_design_drives_a_nontrivial_load() {
        let p = DrivableLoadProblem::new(Spec::featured());
        let dv = DesignVector::reference();
        let (cl, report) = p.drivable_load(&dv).expect("reference must drive a load");
        assert!(cl > 0.1e-12, "drivable load {cl}");
        assert!(report.settling_time <= LOAD_MARGIN * p.spec().st_max);
    }

    #[test]
    fn drivable_load_is_boundary_tight() {
        // Just above the returned load, some margined constraint fails
        // (unless the ceiling was hit).
        let p = DrivableLoadProblem::new(Spec::featured());
        let dv = DesignVector::reference();
        let (cl, _) = p.drivable_load(&dv).unwrap();
        if cl < CL_RANGE.1 * 0.999 {
            let above = integrator::analyze(
                &dv.with_cl(cl + 0.05e-12),
                p.process(),
                &ClockContext::standard(),
            );
            assert!(
                !p.load_ok(&above),
                "load {} should not be drivable",
                cl + 0.05e-12
            );
        }
    }

    #[test]
    fn weak_design_drives_nothing() {
        let p = DrivableLoadProblem::new(Spec::featured());
        // Minimum everything: starved bias cannot settle in time.
        let ev = p.evaluate(&[0.0; 15]);
        assert_eq!(ev.objectives()[0], 0.0); // -cl = 0
        assert!(!ev.is_feasible());
    }

    #[test]
    fn stronger_output_stage_drives_more() {
        let p = DrivableLoadProblem::new(Spec::relaxed());
        let mut weak = DesignVector::reference();
        weak.w6 /= 3.0;
        weak.w7 /= 3.0;
        weak.itail /= 2.0;
        let strong = DesignVector::reference();
        let cl_weak = p.drivable_load(&weak).map(|(c, _)| c).unwrap_or(0.0);
        let cl_strong = p.drivable_load(&strong).map(|(c, _)| c).unwrap_or(0.0);
        assert!(
            cl_strong > cl_weak,
            "strong {cl_strong} should beat weak {cl_weak}"
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = DrivableLoadProblem::new(Spec::featured());
        let genes = vec![0.43; 15];
        assert_eq!(p.evaluate(&genes), p.evaluate(&genes));
    }

    #[test]
    fn gene15_maps_to_common_mode() {
        let mut genes = vec![0.5; 15];
        genes[14] = 0.0;
        let lo = DesignVector::from_sizing_genes(&genes);
        genes[14] = 1.0;
        let hi = DesignVector::from_sizing_genes(&genes);
        assert!(lo.vcm_in < hi.vcm_in);
        assert!((lo.vcm_in - crate::sizing::VCM_RANGE.0).abs() < 1e-12);
        assert!((hi.vcm_in - crate::sizing::VCM_RANGE.1).abs() < 1e-12);
    }

    #[test]
    fn common_mode_affects_feasibility() {
        // Extreme common-mode squeezes tail or mirror headroom.
        let p = DrivableLoadProblem::new(Spec::relaxed());
        let mut dv = DesignVector::reference();
        dv.vcm_in = 0.55;
        let low = p.drivable_load(&dv).map(|(c, _)| c).unwrap_or(0.0);
        dv.vcm_in = 0.9;
        let mid = p.drivable_load(&dv).map(|(c, _)| c).unwrap_or(0.0);
        assert!(mid >= low, "mid-rail CM should not hurt: {mid} vs {low}");
    }

    #[test]
    fn report_accessor_never_panics() {
        let p = DrivableLoadProblem::new(Spec::featured());
        let r = p.report(&[0.0; 15]);
        assert!(r.power.is_finite());
    }

    #[test]
    fn canonicalizer_collapses_quantization_neighbors() {
        let a = vec![0.43; 15];
        // Perturb a width gene by far less than one quantization cell.
        let mut b = a.clone();
        b[0] += 1e-7;
        let ca = canonical_sizing_genes(&a);
        let cb = canonical_sizing_genes(&b);
        assert_eq!(ca, cb, "sub-cell perturbation must share a cache key basis");
        let p = DrivableLoadProblem::new(Spec::featured());
        assert_eq!(p.evaluate(&a), p.evaluate(&b));
    }

    #[test]
    fn canonicalizer_preserves_common_mode() {
        let mut a = vec![0.43; 15];
        let mut b = vec![0.43; 15];
        a[14] = 0.2;
        b[14] = 0.8;
        assert_ne!(canonical_sizing_genes(&a), canonical_sizing_genes(&b));
        assert_eq!(canonical_sizing_genes(&a)[14], 0.2);
    }

    #[test]
    fn canonicalizer_passes_foreign_lengths_through() {
        let odd = vec![0.5; 3];
        assert_eq!(canonical_sizing_genes(&odd), odd);
    }
}
