//! Validate the algorithm stack on the standard benchmark suites (no
//! circuit models involved): convergence, diversity and constraint
//! handling on SCH / ZDT / constrained problems.

use analog_dse::moea::hypervolume::hypervolume_2d;
use analog_dse::moea::metrics::{coverage, extent, generational_distance};
use analog_dse::moea::nsga2::{Nsga2, Nsga2Config};
use analog_dse::moea::problems::{BinhKorn, Constr, Schaffer, Srinivas, Tanaka, Zdt1, Zdt2, Zdt3};
use analog_dse::moea::RunOutcome;
use analog_dse::moea::{Individual, Problem};
use analog_dse::sacga::sacga::{Sacga, SacgaConfig};
use analog_dse::sacga::telemetry::Optimizer;

fn nsga2<P: Problem + Sync>(problem: P, pop: usize, gens: usize, seed: u64) -> RunOutcome {
    let cfg = Nsga2Config::builder()
        .population_size(pop)
        .generations(gens)
        .build()
        .unwrap();
    Nsga2::new(problem, cfg).run(seed).unwrap()
}

fn points(front: &[Individual]) -> Vec<[f64; 2]> {
    front
        .iter()
        .map(|m| [m.objective(0), m.objective(1)])
        .collect()
}

fn vec_points(front: &[Individual]) -> Vec<Vec<f64>> {
    front.iter().map(|m| m.objectives().to_vec()).collect()
}

#[test]
fn zdt1_converges_close_to_true_front() {
    let r = nsga2(Zdt1::new(12), 80, 150, 5);
    let reference: Vec<Vec<f64>> = (0..101)
        .map(|i| {
            let f1 = i as f64 / 100.0;
            vec![f1, 1.0 - f1.sqrt()]
        })
        .collect();
    let gd = generational_distance(&vec_points(&r.front), &reference);
    assert!(gd < 0.05, "ZDT1 generational distance too large: {gd}");
}

#[test]
fn zdt2_concave_front_is_found() {
    let r = nsga2(Zdt2::new(12), 80, 180, 6);
    let reference: Vec<Vec<f64>> = (0..101)
        .map(|i| {
            let f1 = i as f64 / 100.0;
            vec![f1, 1.0 - f1 * f1]
        })
        .collect();
    let gd = generational_distance(&vec_points(&r.front), &reference);
    assert!(gd < 0.08, "ZDT2 generational distance too large: {gd}");
}

#[test]
fn zdt3_disconnected_front_spans_first_objective() {
    let r = nsga2(Zdt3::new(12), 100, 180, 7);
    let ext = extent(&vec_points(&r.front), 0);
    assert!(ext > 0.6, "ZDT3 front should span f1: extent {ext}");
}

#[test]
fn constrained_problems_yield_feasible_fronts() {
    for (name, result) in [
        ("BNH", nsga2(BinhKorn::new(), 60, 100, 8)),
        ("SRN", nsga2(Srinivas::new(), 60, 100, 9)),
        ("TNK", nsga2(Tanaka::new(), 60, 150, 10)),
        ("CONSTR", nsga2(Constr::new(), 60, 100, 11)),
    ] {
        assert!(
            result.front.len() >= 10,
            "{name}: front too small ({})",
            result.front.len()
        );
        assert!(result.front.iter().all(Individual::is_feasible), "{name}");
    }
}

#[test]
fn sacga_matches_nsga2_on_schaffer_hypervolume() {
    let reference = [16.0, 16.0];
    let n = nsga2(Schaffer::new(), 60, 120, 12);
    let cfg = SacgaConfig::builder()
        .population_size(60)
        .generations(120)
        .partitions(6)
        .build()
        .unwrap();
    let s = Sacga::new(Schaffer::new(), cfg).run_seeded(12).unwrap();
    let hv_n = hypervolume_2d(&points(&n.front), reference);
    let hv_s = hypervolume_2d(&points(&s.front), reference);
    assert!(
        hv_s > hv_n * 0.95,
        "SACGA hv {hv_s} should be within 5% of NSGA-II hv {hv_n}"
    );
}

#[test]
fn nsga2_front_is_mutually_nondominated_and_covers_itself() {
    let r = nsga2(Schaffer::new(), 40, 60, 13);
    let pts = vec_points(&r.front);
    // The front weakly covers itself fully and a translated-worse copy.
    assert_eq!(coverage(&pts, &pts), 1.0);
    let worse: Vec<Vec<f64>> = pts.iter().map(|p| vec![p[0] + 0.1, p[1] + 0.1]).collect();
    assert_eq!(coverage(&pts, &worse), 1.0);
    assert_eq!(coverage(&worse, &pts), 0.0);
}

#[test]
fn archive_front_not_worse_than_final_population_front() {
    // The reported (archived) front must dominate-or-equal the final
    // population's rank-0 subset.
    use analog_dse::moea::hypervolume::is_dominated_by_front;
    let r = nsga2(Zdt1::new(8), 40, 60, 14);
    let front_pts = vec_points(&r.front);
    for m in r.population.iter().filter(|m| m.rank == 0) {
        let covered = front_pts.iter().any(|p| p == m.objectives())
            || is_dominated_by_front(m.objectives(), &front_pts);
        assert!(covered, "population member not covered by archive front");
    }
}
