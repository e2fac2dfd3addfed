//! Shared helpers for the experiment harness binaries (`src/bin/fig*.rs`)
//! that regenerate every figure of the reproduced paper.
//!
//! Each binary prints the figure's series as a table and writes a CSV into
//! `results/`. Budgets mirror the paper: population 100, 800 iterations
//! for the front comparisons (Figs. 2, 5, 8), 1200–1250 for the long
//! studies (Figs. 6, 9, 10, 11), a pure-local phase cap of 200.

use analog_circuits::{DrivableLoadProblem, Spec};
use moea::evaluation::Evaluation;
use moea::individual::Individual;
use moea::metrics::{bin_occupancy, spread};
use moea::nsga2::{Nsga2, Nsga2Config};
use moea::{EngineSetup, RunOutcome};
use sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use sacga::sacga::{Sacga, SacgaConfig};
use sacga::telemetry::{JsonlSink, MemorySink, Optimizer, RunEvent, Sink, Tee};
use std::io::Write as _;
use std::path::Path;

pub mod trace;

/// Population size used by every paper experiment.
pub const POP: usize = 100;

/// Iteration budget of the front-comparison figures (2, 5, 8).
pub const GENS_MAIN: usize = 800;

/// Pure-local phase cap (the paper quotes a 200-iteration local phase).
pub const PHASE1_MAX: usize = 200;

/// Default seed; override with the first CLI argument.
pub const DEFAULT_SEED: u64 = 42;

/// Memoization-cache capacity of every figure run. The circuit problems
/// quantize designs onto manufacturing grids, so distinct raw gene
/// vectors frequently collapse to one evaluated design; the problems'
/// cache canonicalizer keys the cache by the quantized basis, turning
/// those collisions into hits (they were all misses when raw genes were
/// the key, which is why earlier `BENCH_runtime.json` aggregates showed
/// a 0% hit rate). Cached answers are bit-identical to re-evaluation,
/// so fronts match cache-free runs exactly.
pub const FIG_CACHE_CAPACITY: usize = 1 << 16;

/// Parses `args[1]` as a seed, defaulting to [`DEFAULT_SEED`].
pub fn seed_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The problem instance every figure uses: the drivable-load integrator
/// sizing problem under the featured specification.
pub fn paper_problem() -> DrivableLoadProblem {
    DrivableLoadProblem::new(Spec::featured())
}

/// The TPG baseline (textbook NSGA-II), configured for this harness.
///
/// # Panics
///
/// Panics on configuration errors (static configs in this harness).
pub fn tpg_ga(problem: &DrivableLoadProblem, gens: usize) -> Nsga2<&DrivableLoadProblem> {
    let cfg = Nsga2Config::builder()
        .population_size(POP)
        .generations(gens)
        .engine_setup(EngineSetup::new().cache_capacity(FIG_CACHE_CAPACITY))
        .build()
        .expect("static config");
    Nsga2::new(problem, cfg)
}

/// Runs the TPG baseline (NSGA-II) and returns its outcome.
///
/// # Panics
///
/// Panics on configuration errors (static configs in this harness).
pub fn run_tpg(problem: &DrivableLoadProblem, gens: usize, seed: u64) -> RunOutcome {
    tpg_ga(problem, gens).run(seed).expect("tpg run")
}

/// Runs the paper's **TPG / "Only Global"** baseline: the same rank-based
/// engine as SACGA but with a single partition — pure global competition
/// from the first generation, no density-based niching (the paper's
/// framework has none; partitioning *is* its diversity mechanism).
///
/// Textbook NSGA-II ([`run_tpg`]) is reported alongside as the modern
/// baseline; with crowding-based truncation it does not exhibit the
/// diversity pathology the paper documents (see `EXPERIMENTS.md`).
///
/// # Panics
///
/// Panics on configuration errors (static configs in this harness).
pub fn run_only_global(problem: &DrivableLoadProblem, gens: usize, seed: u64) -> RunOutcome {
    run_sacga(problem, 1, gens, seed)
}

/// An `m`-partition SACGA, configured for this harness.
///
/// # Panics
///
/// Panics on configuration errors (static configs in this harness).
pub fn sacga_ga(
    problem: &DrivableLoadProblem,
    partitions: usize,
    gens: usize,
) -> Sacga<&DrivableLoadProblem> {
    let (lo, hi) = DrivableLoadProblem::slice_range();
    let cfg = SacgaConfig::builder()
        .population_size(POP)
        .generations(gens)
        .partitions(partitions)
        .phase1_max(PHASE1_MAX.min(gens / 2))
        .slice_range(lo, hi)
        .engine_setup(EngineSetup::new().cache_capacity(FIG_CACHE_CAPACITY))
        .build()
        .expect("static config");
    Sacga::new(problem, cfg)
}

/// Runs an `m`-partition SACGA and returns its outcome.
///
/// # Panics
///
/// Panics on configuration errors (static configs in this harness).
pub fn run_sacga(
    problem: &DrivableLoadProblem,
    partitions: usize,
    gens: usize,
    seed: u64,
) -> RunOutcome {
    sacga_ga(problem, partitions, gens)
        .run_seeded(seed)
        .expect("sacga run")
}

/// Runs the paper's 7-phase MESACGA (20, 13, 8, 5, 3, 2, 1 partitions)
/// with a uniform per-phase span.
///
/// # Panics
///
/// Panics on configuration errors (static configs in this harness).
pub fn run_mesacga(
    problem: &DrivableLoadProblem,
    span: usize,
    phase1_max: usize,
    seed: u64,
) -> RunOutcome {
    mesacga_ga(problem, span, phase1_max)
        .run_seeded(seed)
        .expect("mesacga run")
}

/// The paper's 7-phase MESACGA, configured for this harness.
///
/// # Panics
///
/// Panics on configuration errors (static configs in this harness).
pub fn mesacga_ga(
    problem: &DrivableLoadProblem,
    span: usize,
    phase1_max: usize,
) -> Mesacga<&DrivableLoadProblem> {
    let (lo, hi) = DrivableLoadProblem::slice_range();
    let cfg = MesacgaConfig::builder()
        .population_size(POP)
        .phase1_max(phase1_max)
        .phases(
            [20, 13, 8, 5, 3, 2, 1]
                .into_iter()
                .map(|m| PhaseSpec::new(m, span))
                .collect(),
        )
        .slice_range(lo, hi)
        .engine_setup(EngineSetup::new().cache_capacity(FIG_CACHE_CAPACITY))
        .build()
        .expect("static config");
    Mesacga::new(problem, cfg)
}

/// Runs any [`Optimizer`] with the event stream teed into an in-memory
/// sink and a JSONL log under `results/<name>_seed<seed>.jsonl`, then
/// returns the outcome together with the captured events for replay.
///
/// # Panics
///
/// Panics when the run fails or the log cannot be written
/// (harness-fatal).
pub fn run_logged<O: Optimizer>(ga: &O, name: &str, seed: u64) -> (RunOutcome, Vec<RunEvent>) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}_seed{seed}.jsonl"));
    let jsonl = JsonlSink::create(&path).expect("create jsonl log");
    let mut tee = Tee::new(MemorySink::new(), jsonl);
    let outcome = ga
        .run_with(seed, &mut tee)
        .unwrap_or_else(|e| panic!("{name} run: {e}"));
    tee.flush().expect("flush jsonl log");
    let (memory, jsonl) = tee.into_inner();
    println!(
        "logged {} events to {}",
        jsonl.lines_written(),
        path.display()
    );
    (outcome, memory.into_events())
}

/// Replays a captured event stream: the front carried by the last
/// [`RunEvent::GenerationEnd`] (empty when no generation ran).
pub fn replay_final_front(events: &[RunEvent]) -> Vec<Vec<f64>> {
    events
        .iter()
        .rev()
        .find_map(|e| match e {
            RunEvent::GenerationEnd { front, .. } => Some(front.clone()),
            _ => None,
        })
        .unwrap_or_default()
}

/// Reads a JSONL event log back into events, skipping blank lines and
/// — with a warning on stderr — corrupt lines (e.g. a crash-truncated
/// trailing line).
///
/// # Panics
///
/// Panics when the file cannot be read (harness-fatal).
pub fn read_jsonl_events(path: &Path) -> Vec<RunEvent> {
    let (events, skipped) = read_jsonl_events_lossy(path);
    if skipped > 0 {
        eprintln!(
            "warning: skipped {skipped} corrupt line(s) replaying {}",
            path.display()
        );
    }
    events
}

/// Like [`read_jsonl_events`], but returns the skipped-line count to
/// the caller instead of warning.
///
/// # Panics
///
/// Panics when the file cannot be read (harness-fatal).
pub fn read_jsonl_events_lossy(path: &Path) -> (Vec<RunEvent>, usize) {
    let text = std::fs::read_to_string(path).expect("read jsonl log");
    let replay = RunEvent::parse_jsonl_lossy(&text);
    (replay.events, replay.skipped)
}

/// Rehydrates replayed objective vectors into individuals so the
/// paper-axis metric helpers accept event-stream fronts.
pub fn front_individuals(front: &[Vec<f64>]) -> Vec<Individual> {
    front
        .iter()
        .map(|obj| Individual::new(Vec::new(), Evaluation::unconstrained(obj.clone())))
        .collect()
}

/// Front points on the paper's axes, sorted by load: `(C_L pF, P W)`.
pub fn paper_front(front: &[Vec<f64>]) -> Vec<(f64, f64)> {
    let mut rows: Vec<(f64, f64)> = front
        .iter()
        .map(|obj| DrivableLoadProblem::to_paper_axes(obj))
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    rows
}

/// Summary metrics of a front: `(hypervolume, occupancy-of-20-bins,
/// spread, size)`.
pub fn front_metrics(front: &[Individual]) -> (f64, f64, f64, usize) {
    let hv = DrivableLoadProblem::paper_hypervolume(front);
    let pts: Vec<Vec<f64>> = front
        .iter()
        .map(|m| {
            let (cl, p) = DrivableLoadProblem::to_paper_axes(m.objectives());
            vec![cl, p * 1e4]
        })
        .collect();
    let occ = if pts.is_empty() {
        0.0
    } else {
        bin_occupancy(&pts, 0, 0.0, 5.0, 20)
    };
    (hv, occ, spread(&pts), front.len())
}

/// Writes a CSV file under `results/`, creating the directory on demand.
///
/// # Panics
///
/// Panics when the file cannot be written (harness-fatal).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    println!("\nwrote {}", path.display());
}

/// Removes stale working files (`*.partial`, `*.bak`) that interrupted
/// harness runs can leave under `dir` and its subdirectories, returning
/// the paths removed. Files that fail to delete are skipped — cleanup
/// is best-effort.
pub fn clean_stale_artifacts(dir: &Path) -> Vec<std::path::PathBuf> {
    fn walk(dir: &Path, removed: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, removed);
                continue;
            }
            let stale = path
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e == "partial" || e == "bak");
            if stale && std::fs::remove_file(&path).is_ok() {
                removed.push(path);
            }
        }
    }
    let mut removed = Vec::new();
    walk(dir, &mut removed);
    removed.sort();
    removed
}

/// Prints a front of objective vectors (from [`RunOutcome::front_objectives`]
/// or an event-stream replay) as a two-column table.
pub fn print_front(name: &str, front: &[Vec<f64>]) {
    let rows = paper_front(front);
    println!("\n{name} front ({} designs):", rows.len());
    println!("{:>10} {:>12}", "CL (pF)", "P (mW)");
    for (cl, p) in &rows {
        println!("{cl:10.3} {:12.4}", p * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moea::evaluation::Evaluation;
    use moea::individual::Individual;

    #[test]
    fn paper_front_sorts_by_load() {
        let ind = |cl_pf: f64, p: f64| vec![-cl_pf * 1e-12, p];
        let front = vec![ind(3.0, 0.2e-3), ind(1.0, 0.1e-3), ind(5.0, 0.3e-3)];
        let rows = paper_front(&front);
        assert_eq!(rows.len(), 3);
        assert!((rows[0].0 - 1.0).abs() < 1e-9);
        assert!((rows[2].0 - 5.0).abs() < 1e-9);
        assert!((rows[1].1 - 0.2e-3).abs() < 1e-12);
    }

    #[test]
    fn front_metrics_reports_occupancy_of_clustered_front() {
        let ind = |cl_pf: f64| {
            Individual::new(
                vec![0.0],
                Evaluation::unconstrained(vec![-cl_pf * 1e-12, 1e-4]),
            )
        };
        // three designs inside one 0.25 pF bin
        let front = vec![ind(4.8), ind(4.85), ind(4.9)];
        let (_, occ, _, n) = front_metrics(&front);
        assert_eq!(n, 3);
        assert!((occ - 0.05).abs() < 1e-9, "one of twenty bins: {occ}");
    }

    #[test]
    fn paper_problem_has_expected_shape() {
        use moea::Problem;
        let p = paper_problem();
        assert_eq!(p.num_variables(), 15);
        assert_eq!(p.num_objectives(), 2);
    }

    #[test]
    fn front_metrics_of_empty_front() {
        let (hv, occ, spr, n) = front_metrics(&[]);
        assert_eq!(n, 0);
        assert_eq!(occ, 0.0);
        assert_eq!(spr, 0.0);
        // empty front: ceiling charged over the whole range
        assert!(hv > 0.0);
    }
}
