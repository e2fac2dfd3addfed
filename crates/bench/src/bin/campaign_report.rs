//! The SACGA-vs-TPG diversity claim as a statistical campaign.
//!
//! Runs an `m`-partition SACGA arm against the paper's TPG / "Only
//! Global" baseline (the 1-partition degenerate of the same engine),
//! plus the steady-state SACGA variant (same partitioning, no
//! generation barrier), over a pinned seed list, computes per-cell
//! front metrics and pairwise rank-sum / bootstrap statistics, and
//! writes the deterministic aggregate to
//! `results/BENCH_campaign.json`. Running the binary twice with the
//! same arguments produces byte-identical JSON whatever the thread
//! count — that property is pinned by the `campaign-smoke` CI job.
//!
//! Usage: `campaign_report [n_seeds] [gens] [threads] [--logs]`
//! (defaults: 16 seeds, 120 generations, 4 threads). `--logs` fans
//! each cell's run-event stream out as JSONL under
//! `results/campaign_logs/`.

use analog_circuits::{DrivableLoadProblem, IntegratorProblem};
use campaign::{
    Campaign, CampaignReport, CampaignRunner, CellResult, Metric, MetricSpec, RunnerConfig,
};
use dse_bench::{paper_problem, PHASE1_MAX, POP};
use engine::{CacheConfig, SharedCache};
use moea::{EngineSetup, Evaluation};
use sacga::cellular::{CellularConfig, CellularGa};
use sacga::sacga::{Sacga, SacgaConfig};
use sacga::steady::{SteadyConfig, SteadySacga};
use sacga::telemetry::DynOptimizer;
use sacga::topology::Topology;
use std::path::Path;

/// Pinned seed base: campaign seeds are `SEED_BASE..SEED_BASE + n`.
const SEED_BASE: u64 = 1000;

/// SACGA partition count under test (the paper's featured setting).
const PARTITIONS: usize = 8;

/// Total population of the cellular arms (split across cells).
const CELL_POP: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let logs = args.iter().any(|a| a == "--logs");
    let nums: Vec<usize> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let n_seeds = nums.first().copied().unwrap_or(16).max(1);
    let gens = nums.get(1).copied().unwrap_or(120).max(2);
    let threads = nums.get(2).copied().unwrap_or(4).max(1);
    let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| SEED_BASE + i).collect();

    println!(
        "campaign: sacga{PARTITIONS} vs tpg vs steady{PARTITIONS} vs cell_ring{CELL_POP} vs cell_torus{CELL_POP} | {n_seeds} seeds | {gens} generations | {threads} threads"
    );

    let sacga_arm = |partitions: usize| {
        move |shared: Option<&SharedCache<Evaluation>>| {
            let (lo, hi) = DrivableLoadProblem::slice_range();
            let mut b = SacgaConfig::builder()
                .population_size(POP)
                .generations(gens)
                .partitions(partitions)
                .phase1_max(PHASE1_MAX.min(gens / 2))
                .slice_range(lo, hi);
            if let Some(cache) = shared {
                b = b.engine_setup(EngineSetup::new().shared_cache(cache.clone()));
            }
            let config = b.build().expect("static config");
            Box::new(Sacga::new(paper_problem(), config)) as Box<dyn DynOptimizer>
        }
    };
    let steady_arm = move |shared: Option<&SharedCache<Evaluation>>| {
        let (lo, hi) = DrivableLoadProblem::slice_range();
        let mut b = SteadyConfig::builder()
            .population_size(POP)
            .generations(gens)
            .partitions(PARTITIONS)
            .phase1_max(PHASE1_MAX.min(gens / 2))
            .slice_range(lo, hi);
        if let Some(cache) = shared {
            b = b.engine_setup(EngineSetup::new().shared_cache(cache.clone()));
        }
        let config = b.build().expect("static config");
        Box::new(SteadySacga::new(paper_problem(), config)) as Box<dyn DynOptimizer>
    };
    // Structured-population arms: the same total population spread over
    // a ring of 8 cells and a 4×4 torus, with mild open mating. Neither
    // uses objective-space partitions, so they probe whether topological
    // locality alone buys the diversity that partitioned competition
    // buys the SACGA arms.
    let cellular_arm = |topology: Topology| {
        move |shared: Option<&SharedCache<Evaluation>>| {
            let mut b = CellularConfig::builder()
                .population_size(CELL_POP)
                .generations(gens)
                .topology(topology.clone())
                .migration_interval(10)
                .migrants(1)
                .openness(0.25);
            if let Some(cache) = shared {
                b = b.engine_setup(EngineSetup::new().shared_cache(cache.clone()));
            }
            let config = b.build().expect("static config");
            Box::new(CellularGa::new(paper_problem(), config)) as Box<dyn DynOptimizer>
        }
    };
    let campaign = Campaign::new("sacga-vs-tpg")
        .arm(format!("sacga{PARTITIONS}"), sacga_arm(PARTITIONS))
        .arm("tpg", sacga_arm(1))
        .arm(format!("steady{PARTITIONS}"), steady_arm)
        .arm(
            format!("cell_ring{CELL_POP}"),
            cellular_arm(Topology::Ring {
                cells: 8,
                radius: 1,
            }),
        )
        .arm(
            format!("cell_torus{CELL_POP}"),
            cellular_arm(Topology::Torus {
                rows: 4,
                cols: 4,
                radius: 1,
            }),
        )
        .seeds(seeds);

    let mut config = RunnerConfig::default()
        .threads(threads)
        .shared_cache(CacheConfig::with_capacity(1 << 16));
    if logs {
        config = config.telemetry_dir("results/campaign_logs");
    }
    let results = CampaignRunner::new(config)
        .run(&campaign)
        .unwrap_or_else(|e| panic!("campaign failed: {e}"));

    // Report metrics on scaled paper coordinates: objective 0 becomes
    // -C_L in pF (range -5..0), objective 1 becomes power in 0.1 mW
    // units, so hypervolume, spread and 20-bin occupancy all have
    // readable magnitudes. The same two constants scale every cell, so
    // the scaling cannot break cross-cell comparability.
    let scaled: Vec<CellResult> = results
        .iter()
        .map(|cell| {
            let mut cell = cell.clone();
            for (_, obj) in &mut cell.front {
                obj[0] *= 1e12;
                obj[1] *= 1e4;
            }
            cell
        })
        .collect();
    let labels: Vec<String> = campaign
        .arms()
        .iter()
        .map(|a| a.label().to_string())
        .collect();
    let (slice_lo, _) = DrivableLoadProblem::slice_range();
    let spec = MetricSpec::new(
        [0.0, IntegratorProblem::HV_POWER_CEILING],
        (slice_lo * 1e12, 0.0),
        20,
    );
    let report = CampaignReport::build(campaign.name(), &labels, &scaled, &spec);

    println!(
        "\n{:>8} {:>6} {:>12} {:>10} {:>10} {:>6}",
        "arm", "seed", "hypervol", "spread", "occup", "front"
    );
    for arm in &report.arms {
        for cell in &arm.cells {
            println!(
                "{:>8} {:>6} {:>12.4} {:>10.4} {:>10.3} {:>6}",
                arm.label,
                cell.seed,
                cell.metrics.hypervolume,
                cell.metrics.spread,
                cell.metrics.occupancy,
                cell.front_size
            );
        }
    }

    println!("\npairwise comparisons (one-sided exact rank-sum, 95% bootstrap CI):");
    // Every arm against the TPG baseline (labels[1]).
    let pairs: Vec<(&String, &String)> = labels
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 1)
        .map(|(_, l)| (l, &labels[1]))
        .collect();
    for pair in pairs {
        for metric in Metric::ALL {
            let c = report
                .comparison(pair.0, pair.1, metric)
                .expect("comparison exists");
            println!(
                "  {:<12} U = {:>6.1}  p({} > {}) = {:.4}  p({} > {}) = {:.4}  mean diff = {:+.4} [{:+.4}, {:+.4}]",
                c.metric, c.u_a, c.arm_a, c.arm_b, c.p_a_greater, c.arm_b, c.arm_a, c.p_b_greater, c.mean_diff, c.ci_lo, c.ci_hi
            );
        }
    }

    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("BENCH_campaign.json");
    std::fs::write(&path, report.to_json()).expect("write campaign report");
    println!("\nwrote {}", path.display());
}
