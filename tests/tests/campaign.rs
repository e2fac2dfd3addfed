//! Integration tests of the campaign layer's determinism contract:
//! parallel shared-cache execution must be bit-identical to isolated
//! serial runs, aggregate reports must be byte-stable across
//! repetitions and thread counts, and a killed campaign must resume to
//! the exact bytes an uninterrupted campaign produces (pinned against a
//! committed golden snapshot; re-record with
//! `UPDATE_GOLDEN=1 cargo test -p integration-tests --test campaign`).

use campaign::{Campaign, CampaignReport, CampaignRunner, CellResult, MetricSpec, RunnerConfig};
use engine::{CacheConfig, SharedCache};
use moea::nsga2::{Nsga2, Nsga2Config};
use moea::problems::Schaffer;
use moea::{EngineSetup, Evaluation};
use sacga::sacga::{Sacga, SacgaConfig};
use sacga::telemetry::DynOptimizer;
use std::path::PathBuf;

mod common;
use common::check_golden;

/// A scratch directory unique to this test binary's runs.
fn scratch_dir(name: &str) -> PathBuf {
    common::scratch_dir("campaign-it", name)
}

/// The fixed campaign under test: a 4-partition SACGA arm and a
/// textbook NSGA-II arm, both on Schaffer, exercising two different
/// optimizer types behind the object-safe API.
fn schaffer_campaign() -> Campaign<'static> {
    Campaign::new("schaffer-matrix")
        .arm("sacga4", |shared: Option<&SharedCache<Evaluation>>| {
            let mut b = SacgaConfig::builder()
                .population_size(16)
                .generations(10)
                .partitions(4);
            if let Some(cache) = shared {
                b = b.engine_setup(EngineSetup::new().shared_cache(cache.clone()));
            }
            Box::new(Sacga::new(Schaffer::new(), b.build().unwrap())) as Box<dyn DynOptimizer>
        })
        .arm("nsga2", |shared: Option<&SharedCache<Evaluation>>| {
            let mut b = Nsga2Config::builder().population_size(16).generations(10);
            if let Some(cache) = shared {
                b = b.engine_setup(EngineSetup::new().shared_cache(cache.clone()));
            }
            Box::new(Nsga2::new(Schaffer::new(), b.build().unwrap())) as Box<dyn DynOptimizer>
        })
}

fn report_spec() -> MetricSpec {
    MetricSpec::new([4.5, 4.5], (0.0, 4.0), 8)
}

fn build_report(campaign: &Campaign<'_>, results: &[CellResult]) -> CampaignReport {
    let labels: Vec<String> = campaign
        .arms()
        .iter()
        .map(|a| a.label().to_string())
        .collect();
    CampaignReport::build(campaign.name(), &labels, results, &report_spec())
}

#[test]
fn parallel_shared_cache_cells_match_isolated_serial_runs() {
    // 2 arms × 8 seeds on 4 worker threads with a shared evaluation
    // cache: every cell must be bit-identical to running the same
    // (arm, seed) alone, serially, with no cache at all.
    let campaign = schaffer_campaign().seeds((0..8).map(|i| 10 + i).collect::<Vec<u64>>());
    let runner = CampaignRunner::new(
        RunnerConfig::default()
            .threads(4)
            .shared_cache(CacheConfig::with_capacity(4096)),
    );
    let results = runner.run(&campaign).unwrap();
    assert_eq!(results.len(), 16);

    for (cell, result) in campaign.cells().into_iter().zip(&results) {
        let arm = &campaign.arms()[cell.arm];
        let seed = campaign.seed_list()[cell.seed_index];
        let outcome = arm.build(None).run_dyn(seed).unwrap();
        let isolated = CellResult::from_outcome(arm.label(), seed, &outcome);
        assert_eq!(
            result.to_text(),
            isolated.to_text(),
            "cell ({}, {seed}) diverged from its isolated serial run",
            arm.label()
        );
    }
}

#[test]
fn report_json_is_stable_across_repetitions_and_thread_counts() {
    let seeds: Vec<u64> = (0..6).map(|i| 50 + i).collect();
    let json_with_threads = |threads: usize| {
        let campaign = schaffer_campaign().seeds(seeds.clone());
        let runner = CampaignRunner::new(
            RunnerConfig::default()
                .threads(threads)
                .shared_cache(CacheConfig::with_capacity(4096)),
        );
        let results = runner.run(&campaign).unwrap();
        build_report(&campaign, &results).to_json()
    };
    let first = json_with_threads(4);
    assert_eq!(first, json_with_threads(4), "repeat run changed the report");
    assert_eq!(
        first,
        json_with_threads(1),
        "thread count changed the report"
    );
}

#[test]
fn killed_campaign_resumes_to_byte_identical_report() {
    let seeds: Vec<u64> = (0..4).map(|i| 42 + i).collect();

    // Reference: the uninterrupted campaign, no persistence involved.
    let campaign = schaffer_campaign().seeds(seeds.clone());
    let uninterrupted = CampaignRunner::new(RunnerConfig::default().threads(1))
        .run(&campaign)
        .unwrap();
    let reference_json = build_report(&campaign, &uninterrupted).to_json();

    // Interrupted: a single-threaded runner killed after 3 of the 8
    // cells (single-threaded so *which* cells ran is deterministic).
    let dir = scratch_dir("resume");
    let interrupted = CampaignRunner::new(RunnerConfig::default().threads(1).state_dir(&dir));
    let partial = interrupted.run_at_most(&campaign, 3).unwrap();
    assert!(partial.is_none(), "budgeted run must stop early");
    let persisted = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(persisted, 3, "exactly the budgeted cells must persist");

    // Resume with a fresh runner: only the unfinished cells run, and
    // the aggregate is byte-identical to the uninterrupted campaign.
    let resumed = CampaignRunner::new(RunnerConfig::default().threads(2).state_dir(&dir))
        .run(&campaign)
        .unwrap();
    let resumed_json = build_report(&campaign, &resumed).to_json();
    assert_eq!(
        resumed_json, reference_json,
        "kill + resume must aggregate to the uninterrupted bytes"
    );

    // Pin the exact bytes against the committed golden snapshot.
    check_golden("campaign_schaffer_report.json", &resumed_json);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_torn_state_files_and_reruns_them() {
    let seeds: Vec<u64> = vec![7, 8];
    let campaign = schaffer_campaign().seeds(seeds);
    let dir = scratch_dir("torn");

    let runner = CampaignRunner::new(RunnerConfig::default().threads(1).state_dir(&dir));
    let complete = runner.run(&campaign).unwrap();

    // Truncate one persisted cell mid-file (as a kill during write
    // would) and corrupt another's header outright.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let torn = std::fs::read_to_string(&files[0]).unwrap();
    std::fs::write(&files[0], &torn[..torn.len() / 2]).unwrap();
    std::fs::write(&files[1], "campaign-cell v0\ngarbage\n").unwrap();

    let rerun = runner.run(&campaign).unwrap();
    for (a, b) in complete.iter().zip(&rerun) {
        assert_eq!(
            a.to_text(),
            b.to_text(),
            "re-run cells must reproduce exactly"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
