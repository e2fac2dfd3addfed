//! Property-based tests of the circuit-model invariants.

use analog_circuits::integrator::{analyze, prepare, ClockContext};
use analog_circuits::mosfet::{effective_overdrive, Mosfet, SLOPE_FACTOR, V_THERMAL};
use analog_circuits::process::{Corner, DeviceType, Process, TransistorParams};
use analog_circuits::sizing::DesignVector;
use analog_circuits::yield_est;
use analog_circuits::{DrivableLoadProblem, IntegratorProblem, Spec};
use moea::Problem;
use proptest::prelude::*;

fn device() -> impl Strategy<Value = Mosfet> {
    (
        prop_oneof![Just(DeviceType::Nmos), Just(DeviceType::Pmos)],
        1e-6f64..400e-6,
        0.18e-6f64..1.5e-6,
    )
        .prop_map(|(d, w, l)| Mosfet::new(d, w, l))
}

/// Finite `f64`s of either sign across ±60 binary orders of magnitude.
fn finite() -> impl Strategy<Value = f64> {
    (-1.0f64..1.0, -60i32..60).prop_map(|(m, e)| m * 2f64.powi(e))
}

/// A process with every field an arbitrary finite value.
fn any_process() -> impl Strategy<Value = Process> {
    prop::collection::vec(finite(), 28).prop_map(|v| {
        let device = |f: &[f64]| TransistorParams {
            vt0: f[0],
            kp: f[1],
            esat: f[2],
            lambda: f[3],
            theta1: f[4],
            theta2: f[5],
            vk: f[6],
            c_overlap: f[7],
            cj: f[8],
            cjsw: f[9],
            l_diff: f[10],
        };
        Process {
            vdd: v[0],
            cox: v[1],
            nmos: device(&v[2..13]),
            pmos: device(&v[13..24]),
            cap_density: v[24],
            bottom_plate_fraction: v[25],
            l_min: v[26],
        }
    })
}

/// Bit-level identity of finite-valued reports and processes: `Debug`
/// prints each `f64` in its shortest round-trip form (and keeps the sign
/// of zero), so two renderings match exactly when every field's bits do.
fn bits<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// A drivable-load design: unit-cube genes, or the reference sizing with
/// each gene moved by at most ±0.1, so many candidates are biased.
fn design() -> impl Strategy<Value = DesignVector> {
    (prop::collection::vec(0.0f64..1.0, 15), 0u8..2).prop_map(|(genes, near)| {
        let genes: Vec<f64> = if near == 1 {
            let mut reference = DesignVector::reference().to_genes();
            reference[14] = 0.5;
            reference
                .iter()
                .zip(&genes)
                .map(|(&r, &g)| (r + 0.2 * (g - 0.5)).clamp(0.0, 1.0))
                .collect()
        } else {
            genes
        };
        DesignVector::from_sizing_genes(&genes).quantize()
    })
}

proptest! {
    #[test]
    fn prepared_stage_never_reads_the_load(
        dv in design(),
        a in finite(),
        b in finite(),
        x in 0.0f64..6e-12,
        corner in 0usize..5,
    ) {
        let process = Process::nominal().at_corner(Corner::ALL[corner]);
        let clock = ClockContext::standard();
        let sa = prepare(&dv.with_cl(a), &process, &clock);
        let sb = prepare(&dv.with_cl(b), &process, &clock);
        prop_assert_eq!(bits(&sa.at_load(x)), bits(&sb.at_load(x)));
        // And `analyze` is the stage finished at the design's own load.
        prop_assert_eq!(
            bits(&sa.at_load(x)),
            bits(&analyze(&dv.with_cl(x), &process, &clock))
        );
    }

    #[test]
    fn nominal_sample_reproduces_the_nominal_process(p in any_process()) {
        let plan = yield_est::prepared_plan(&p);
        let nominal: Vec<&Process> = plan
            .iter()
            .filter(|(sp, _)| sp.is_nominal())
            .map(|(_, process)| process)
            .collect();
        prop_assert_eq!(nominal.len(), 1, "exactly one identity sample");
        prop_assert_eq!(bits(nominal[0]), bits(&p));
    }

    #[test]
    fn reusing_the_nominal_report_keeps_robustness(
        dv in design(),
        cl in 0.02e-12f64..5e-12,
        corner in 0usize..5,
        relaxed in 0u8..2,
    ) {
        let spec = if relaxed == 1 { Spec::relaxed() } else { Spec::featured() };
        let nominal = Process::nominal().at_corner(Corner::ALL[corner]);
        let clock = ClockContext::standard();
        let dv = dv.with_cl(cl);
        let report = analyze(&dv, &nominal, &clock);
        let plan = yield_est::prepared_plan(&nominal);
        let reused = yield_est::robustness_prepared(&dv, &plan, &clock, &spec, Some(&report));
        let full = yield_est::robustness_detailed(&dv, &nominal, &clock, &spec);
        prop_assert_eq!(reused.0.to_bits(), full.0.to_bits());
        prop_assert_eq!(reused.1, full.1);
    }

    #[test]
    fn effective_overdrive_is_monotone_positive(
        v1 in -1.0f64..1.0,
        v2 in -1.0f64..1.0,
    ) {
        let (a, b) = (v1.min(v2), v1.max(v2));
        prop_assert!(effective_overdrive(a) <= effective_overdrive(b) + 1e-15);
        prop_assert!(effective_overdrive(v1) > 0.0);
        // strong-inversion asymptote
        prop_assert!((effective_overdrive(1.0) - 1.0).abs() < 0.01);
    }

    #[test]
    fn drain_current_monotone_in_vgs(m in device(), vds in 0.1f64..1.8) {
        let p = Process::nominal();
        let mut prev = -1.0;
        for step in 0..20 {
            let vgs = 0.1 + 0.08 * step as f64;
            let id = m.id(&p, vgs, vds);
            prop_assert!(id >= prev - 1e-15, "current fell as vgs rose");
            prev = id;
        }
    }

    #[test]
    fn drain_current_monotone_in_vds(m in device(), vgs in 0.5f64..1.6) {
        let p = Process::nominal();
        let mut prev = -1.0f64;
        for step in 0..24 {
            let vds = 0.02 + 0.075 * step as f64;
            let id = m.id(&p, vgs, vds);
            prop_assert!(id >= prev - 1e-12 * prev.abs().max(1e-18));
            prev = id;
        }
    }

    #[test]
    fn operating_point_is_physical(m in device(), vgs in 0.2f64..1.7, vds in 0.05f64..1.75) {
        let p = Process::nominal();
        let op = m.operating_point(&p, vgs, vds);
        prop_assert!(op.id >= 0.0 && op.id.is_finite());
        prop_assert!(op.gm >= 0.0 && op.gm.is_finite());
        prop_assert!(op.gds >= 0.0 && op.gds.is_finite());
        prop_assert!(op.vdsat > 0.0);
        // gm/id bounded by the subthreshold limit
        if op.id > 1e-12 {
            let gm_over_id = op.gm / op.id;
            prop_assert!(
                gm_over_id < 1.1 / (SLOPE_FACTOR * V_THERMAL),
                "gm/id {gm_over_id} above physical limit"
            );
        }
    }

    #[test]
    fn vgs_for_current_round_trips(m in device(), frac in 0.01f64..0.9) {
        let p = Process::nominal();
        let vds = 0.9;
        let max_id = m.id(&p, 1.7, vds);
        prop_assume!(max_id > 1e-9);
        let target = frac * max_id;
        if let Some(vgs) = m.vgs_for_current(&p, target, vds, 1.7) {
            let achieved = m.id(&p, vgs, vds);
            prop_assert!(
                (achieved - target).abs() / target < 1e-4,
                "round trip {achieved} vs {target}"
            );
        }
    }

    #[test]
    fn integrator_reports_are_finite_everywhere(genes in prop::collection::vec(0.0f64..1.0, 15)) {
        let dv = DesignVector::from_sizing_genes(&genes).quantize();
        let p = Process::nominal();
        let clock = ClockContext::standard();
        for corner in Corner::ALL {
            let r = analyze(&dv.with_cl(1e-12), &p.at_corner(corner), &clock);
            prop_assert!(r.settling_time.is_finite() && r.settling_time > 0.0);
            prop_assert!(r.settling_error.is_finite() && r.settling_error >= 0.0);
            prop_assert!(r.power.is_finite() && r.power > 0.0);
            prop_assert!(r.area.is_finite() && r.area > 0.0);
            prop_assert!(r.dynamic_range_db.is_finite());
            prop_assert!(r.output_range >= 0.0);
        }
    }

    #[test]
    fn fixed_load_problem_evaluations_well_formed(genes in prop::collection::vec(0.0f64..1.0, 15)) {
        let problem = IntegratorProblem::new(Spec::featured());
        let ev = problem.evaluate(&genes);
        prop_assert!(problem.check_evaluation(&ev).is_ok());
        prop_assert!(ev.objectives()[1] > 0.0, "power must be positive");
        prop_assert!(ev.objectives()[0] <= 0.0, "-CL must be non-positive");
        prop_assert!(ev.constraint_violations().iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn drivable_load_is_feasible_and_edge_tight(
        genes in prop::collection::vec(0.0f64..1.0, 15),
    ) {
        // The search contract: the returned load satisfies the margined
        // load-dependent constraints, and (unless the ceiling was hit) the
        // load just above the returned upper edge does not.
        let problem = DrivableLoadProblem::new(Spec::featured());
        let dv = DesignVector::from_sizing_genes(&genes).quantize();
        let clock = ClockContext::standard();
        let p = Process::nominal();
        let ok = |cl: f64| {
            let r = analyze(&dv.with_cl(cl), &p, &clock);
            r.is_biased()
                && r.settling_time <= 0.8 * problem.spec().st_max
                && r.settling_error <= 0.8 * problem.spec().se_max
                && r.p2 >= 1.5 * r.omega_c
        };
        if let Some((cl, report)) = problem.drivable_load(&dv) {
            prop_assert!(ok(cl), "returned load must satisfy the margined constraints");
            prop_assert!(report.is_biased());
            let ceiling = analog_circuits::sizing::CL_RANGE.1;
            if cl < ceiling * 0.99 {
                // The bisection interval width is < 0.02 pF.
                prop_assert!(
                    !ok(cl + 0.02e-12),
                    "load just above the edge should be infeasible (cl = {cl})"
                );
            }
        }
    }

    #[test]
    fn quantize_is_idempotent_and_snaps(genes in prop::collection::vec(0.0f64..1.0, 15)) {
        let dv = DesignVector::from_sizing_genes(&genes).quantize();
        let again = dv.quantize();
        prop_assert!((dv.w1 - again.w1).abs() < 1e-18);
        prop_assert!((dv.cc - again.cc).abs() < 1e-24);
        // widths are whole fingers
        let fingers = dv.w6 / analog_circuits::sizing::W_UNIT;
        prop_assert!((fingers - fingers.round()).abs() < 1e-9);
        let units = dv.cs / analog_circuits::sizing::C_UNIT;
        prop_assert!((units - units.round()).abs() < 1e-9);
    }

    #[test]
    fn corners_never_panic_the_yield_estimator(genes in prop::collection::vec(0.0f64..1.0, 15)) {
        let dv = DesignVector::from_sizing_genes(&genes).quantize();
        let rob = analog_circuits::yield_est::robustness(
            &dv.with_cl(1e-12),
            &Process::nominal(),
            &ClockContext::standard(),
            &Spec::featured(),
        );
        prop_assert!((0.0..=1.0).contains(&rob));
    }
}
