//! Cross-crate integration tests: the full stack from circuit models
//! through the GA algorithms, at small budgets.

use analog_dse::circuits::drivable::DrivableLoadProblem;
use analog_dse::circuits::{IntegratorProblem, Spec};
use analog_dse::moea::nsga2::{Nsga2, Nsga2Config};
use analog_dse::sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use analog_dse::sacga::sacga::{Sacga, SacgaConfig};
use analog_dse::sacga::telemetry::Optimizer;

const POP: usize = 40;
const GENS: usize = 60;
const SEED: u64 = 11;

#[test]
fn nsga2_finds_feasible_integrator_designs() {
    let problem = DrivableLoadProblem::new(Spec::relaxed());
    let cfg = Nsga2Config::builder()
        .population_size(POP)
        .generations(GENS)
        .build()
        .unwrap();
    let r = Nsga2::new(&problem, cfg).run(SEED).unwrap();
    assert!(!r.front.is_empty(), "no feasible designs found");
    for m in &r.front {
        assert!(m.is_feasible());
        let (cl_pf, p_w) = DrivableLoadProblem::to_paper_axes(m.objectives());
        assert!((0.0..=5.0).contains(&cl_pf), "CL out of range: {cl_pf}");
        assert!(p_w > 0.0 && p_w < 0.1, "implausible power: {p_w}");
    }
}

#[test]
fn sacga_covers_more_of_the_load_axis_than_only_global() {
    // The paper's central claim, at miniature scale: partitioned local
    // competition preserves diversity that pure global competition loses.
    let problem = DrivableLoadProblem::new(Spec::relaxed());
    let (lo, hi) = DrivableLoadProblem::slice_range();
    let run = |partitions: usize| {
        let cfg = SacgaConfig::builder()
            .population_size(POP)
            .generations(GENS)
            .partitions(partitions)
            .phase1_max(20)
            .slice_range(lo, hi)
            .build()
            .unwrap();
        Sacga::new(&problem, cfg).run_seeded(SEED).unwrap()
    };
    let only_global = run(1);
    let sacga = run(8);
    assert!(!sacga.front.is_empty() && !only_global.front.is_empty());
    let hv_og = DrivableLoadProblem::paper_hypervolume(&only_global.front);
    let hv_s = DrivableLoadProblem::paper_hypervolume(&sacga.front);
    // SACGA must not be meaningfully worse at equal budget.
    assert!(
        hv_s <= hv_og * 1.15,
        "SACGA hv {hv_s} should be competitive with only-global hv {hv_og}"
    );
}

#[test]
fn mesacga_runs_all_phases_on_the_circuit_problem() {
    let problem = DrivableLoadProblem::new(Spec::relaxed());
    let (lo, hi) = DrivableLoadProblem::slice_range();
    let cfg = MesacgaConfig::builder()
        .population_size(POP)
        .phase1_max(10)
        .phases(vec![
            PhaseSpec::new(10, 15),
            PhaseSpec::new(4, 15),
            PhaseSpec::new(1, 15),
        ])
        .slice_range(lo, hi)
        .build()
        .unwrap();
    let r = Mesacga::new(&problem, cfg).run_seeded(SEED).unwrap();
    assert_eq!(r.phase_fronts.len(), 3);
    assert!(!r.front.is_empty());
    // Phase fronts are population snapshots; quality should not collapse
    // across phases (small regressions from diversity churn are normal).
    let hvs: Vec<f64> = r
        .phase_fronts
        .iter()
        .map(|f| DrivableLoadProblem::paper_hypervolume(f))
        .collect();
    assert!(
        hvs.last().unwrap() <= &(hvs[0] * 1.3),
        "front quality collapsed across phases: {hvs:?}"
    );
}

#[test]
fn fixed_load_and_drivable_load_formulations_agree_on_reference() {
    // The reference design evaluated at its drivable load must be feasible
    // under the fixed-load formulation at that same load.
    let drivable = DrivableLoadProblem::new(Spec::relaxed());
    let dv = analog_dse::circuits::DesignVector::reference();
    let (cl, _) = drivable
        .drivable_load(&dv)
        .expect("reference drives a load");
    let fixed = IntegratorProblem::new(Spec::relaxed());
    let ev = fixed.evaluate_design(&dv.with_cl(cl));
    assert!(
        ev.is_feasible(),
        "violations at drivable load: {:?}",
        ev.constraint_violations()
    );
}

#[test]
fn seeds_reproduce_entire_pipeline() {
    let problem = DrivableLoadProblem::new(Spec::relaxed());
    let cfg = || {
        SacgaConfig::builder()
            .population_size(20)
            .generations(15)
            .partitions(4)
            .build()
            .unwrap()
    };
    let a = Sacga::new(&problem, cfg()).run_seeded(99).unwrap();
    let b = Sacga::new(&problem, cfg()).run_seeded(99).unwrap();
    assert_eq!(a.front_objectives(), b.front_objectives());
    assert_eq!(a.stats.evaluations, b.stats.evaluations);
}

#[test]
fn harder_specs_produce_worse_or_equal_fronts() {
    // Grade-1 (easy) vs grade-20 (hard) at identical budgets: the easy
    // spec's achievable front must be at least as good.
    let suite = Spec::graded_suite();
    let easy = DrivableLoadProblem::new(suite.first().unwrap().clone());
    let hard = DrivableLoadProblem::new(suite.last().unwrap().clone());
    let run = |p: &DrivableLoadProblem| {
        let cfg = Nsga2Config::builder()
            .population_size(POP)
            .generations(GENS)
            .build()
            .unwrap();
        Nsga2::new(p, cfg).run(SEED).unwrap()
    };
    let r_easy = run(&easy);
    let r_hard = run(&hard);
    let hv_easy = DrivableLoadProblem::paper_hypervolume(&r_easy.front);
    let hv_hard = DrivableLoadProblem::paper_hypervolume(&r_hard.front);
    assert!(
        hv_easy <= hv_hard * 1.05,
        "easy spec should yield a better front: {hv_easy} vs {hv_hard}"
    );
}

#[test]
fn front_objectives_translate_to_paper_axes() {
    let problem = DrivableLoadProblem::new(Spec::relaxed());
    let cfg = Nsga2Config::builder()
        .population_size(20)
        .generations(10)
        .build()
        .unwrap();
    let r = Nsga2::new(&problem, cfg).run(SEED).unwrap();
    for m in &r.front {
        let (cl_pf, p_w) = DrivableLoadProblem::to_paper_axes(m.objectives());
        assert!((cl_pf * 1e-12 + m.objective(0)).abs() < 1e-18);
        assert_eq!(p_w, m.objective(1));
    }
}
