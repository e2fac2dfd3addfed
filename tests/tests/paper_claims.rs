//! Miniature-scale checks of the paper's qualitative claims, fast enough
//! for CI (the full-budget evidence lives in the `dse-bench` harness and
//! `EXPERIMENTS.md`).

use analog_dse::moea::hypervolume::hypervolume_2d;
use analog_dse::moea::problems::NarrowingCorridor;
use analog_dse::moea::Individual;
use analog_dse::sacga::anneal::ProbabilityShaper;
use analog_dse::sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use analog_dse::sacga::sacga::{CompetitionMode, Sacga, SacgaConfig};
use campaign::{Campaign, CampaignReport, CampaignRunner, Metric, MetricSpec, RunnerConfig};
use engine::{CacheConfig, SharedCache};
use moea::{EngineSetup, Evaluation};
use sacga::telemetry::DynOptimizer;

fn corridor() -> NarrowingCorridor {
    NarrowingCorridor::new(0.04)
}

fn run_engine(partitions: usize, gens: usize, mode: CompetitionMode, seed: u64) -> Vec<Individual> {
    let cfg = SacgaConfig::builder()
        .population_size(60)
        .generations(gens)
        .partitions(partitions)
        .phase1_max(15)
        .slice_range(-1.0, 0.0)
        .mode(mode)
        .build()
        .unwrap();
    Sacga::new(corridor(), cfg).run_seeded(seed).unwrap().front
}

/// The paper's headline diversity claim, tested as a distribution
/// rather than as a single lucky seed: across a pinned 16-seed
/// campaign, the 8-partition SACGA's fronts occupy significantly more
/// coverage-axis bins than the 1-partition "Only Global" engine (exact
/// one-sided rank-sum, p < 0.05) while its hypervolume is not
/// significantly worse at the same level.
#[test]
fn sacga_diversity_beats_only_global_across_seed_campaign() {
    let seeds: Vec<u64> = (0..16).map(|i| 100 + i).collect();
    let arm = |partitions: usize| {
        move |shared: Option<&SharedCache<Evaluation>>| {
            let mut b = SacgaConfig::builder()
                .population_size(60)
                .generations(120)
                .partitions(partitions)
                .phase1_max(15)
                .slice_range(-1.0, 0.0)
                .mode(CompetitionMode::Annealed);
            if let Some(cache) = shared {
                b = b.engine_setup(EngineSetup::new().shared_cache(cache.clone()));
            }
            let cfg = b.build().unwrap();
            Box::new(Sacga::new(corridor(), cfg)) as Box<dyn DynOptimizer>
        }
    };
    let campaign = Campaign::new("corridor-diversity")
        .arm("sacga8", arm(8))
        .arm("tpg", arm(1))
        .seeds(seeds);
    let runner = CampaignRunner::new(
        RunnerConfig::default()
            .threads(4)
            .shared_cache(CacheConfig::with_capacity(1 << 14)),
    );
    let results = runner.run(&campaign).unwrap();
    let labels: Vec<String> = campaign
        .arms()
        .iter()
        .map(|a| a.label().to_string())
        .collect();
    let spec = MetricSpec::new([0.0, 3.0], (-1.0, 0.0), 10);
    let report = CampaignReport::build(campaign.name(), &labels, &results, &spec);

    let occ = report
        .comparison("sacga8", "tpg", Metric::Occupancy)
        .unwrap();
    assert!(
        occ.p_a_greater < 0.05,
        "partitioned fronts must be significantly more diverse: \
         U = {}, p = {}",
        occ.u_a,
        occ.p_a_greater
    );
    let hv = report
        .comparison("sacga8", "tpg", Metric::Hypervolume)
        .unwrap();
    assert!(
        hv.p_b_greater >= 0.05,
        "partitioning must not significantly hurt convergence: \
         U = {}, p(tpg better) = {}",
        hv.u_a,
        hv.p_b_greater
    );
}

#[test]
fn annealed_promotion_converges_better_than_local_only() {
    // Sec. 4.3/4.4: pure local competition advances the front slowly;
    // mixing in global competition speeds it up. Compare conventional
    // hypervolume (higher better) at equal budgets, averaged over seeds.
    let reference = [0.0, 3.0];
    let mut hv_annealed = 0.0;
    let mut hv_local = 0.0;
    for seed in [1u64, 2, 3] {
        let annealed = run_engine(8, 150, CompetitionMode::Annealed, seed);
        let local = run_engine(8, 150, CompetitionMode::LocalOnly, seed);
        let pts = |f: &[Individual]| -> Vec<[f64; 2]> {
            f.iter().map(|m| [m.objective(0), m.objective(1)]).collect()
        };
        hv_annealed += hypervolume_2d(&pts(&annealed), reference);
        hv_local += hypervolume_2d(&pts(&local), reference);
    }
    assert!(
        hv_annealed >= hv_local * 0.98,
        "annealed promotion should not converge worse: {hv_annealed} vs {hv_local}"
    );
}

#[test]
fn mesacga_needs_no_partition_tuning() {
    // Fig. 6/11 claim in miniature: MESACGA should be competitive with a
    // reasonable static partition choice without tuning m.
    let mes_cfg = MesacgaConfig::builder()
        .population_size(60)
        .phase1_max(15)
        .phases(vec![
            PhaseSpec::new(12, 45),
            PhaseSpec::new(6, 45),
            PhaseSpec::new(2, 45),
        ])
        .slice_range(-1.0, 0.0)
        .build()
        .unwrap();
    let mes = Mesacga::new(corridor(), mes_cfg).run_seeded(9).unwrap();
    let static8 = run_engine(8, 150, CompetitionMode::Annealed, 9);
    let pts = |f: &[Individual]| -> Vec<[f64; 2]> {
        f.iter().map(|m| [m.objective(0), m.objective(1)]).collect()
    };
    let hv_mes = hypervolume_2d(&pts(&mes.front), [0.0, 3.0]);
    let hv_static = hypervolume_2d(&pts(&static8), [0.0, 3.0]);
    assert!(
        hv_mes >= hv_static * 0.9,
        "MESACGA {hv_mes} should be within 10% of a tuned static SACGA {hv_static}"
    );
}

#[test]
fn promotion_counts_grow_across_phase_two() {
    // The annealing schedule must actually shift competition from local to
    // global within a run (cf. Fig. 4).
    let cfg = SacgaConfig::builder()
        .population_size(60)
        .generations(120)
        .partitions(8)
        .phase1_max(15)
        .slice_range(-1.0, 0.0)
        .build()
        .unwrap();
    let r = Sacga::new(corridor(), cfg).run_seeded(3).unwrap();
    let phase2: Vec<usize> = r
        .history
        .iter()
        .filter(|h| h.phase == 2)
        .map(|h| h.promoted)
        .collect();
    let early: usize = phase2.iter().take(10).sum();
    let late: usize = phase2.iter().rev().take(10).sum();
    assert!(
        late > early,
        "promotions must rise as T_A cools: {early} -> {late}"
    );
}

#[test]
fn shaper_targets_are_respected_in_a_live_run() {
    // End-to-end: with targets (0.5, 0.1, 0.9), by the final generations
    // nearly every locally superior solution participates globally.
    let (policy, schedule) = ProbabilityShaper::standard().solve(5, 200).unwrap();
    // average probability across i=1..5 at the end of the span
    let t_end = schedule.temperature(200);
    let avg_end: f64 = (1..=5).map(|i| policy.probability(i, t_end)).sum::<f64>() / 5.0;
    assert!(
        avg_end > 0.9,
        "end-of-span participation too low: {avg_end}"
    );
    let t_start = schedule.temperature(0);
    let avg_start: f64 = (1..=5).map(|i| policy.probability(i, t_start)).sum::<f64>() / 5.0;
    assert!(
        avg_start < 0.1,
        "start-of-span participation too high: {avg_start}"
    );
}
