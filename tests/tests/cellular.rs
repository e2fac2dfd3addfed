//! Differential tests pinning the cellular structured-population
//! engine:
//!
//! * the fully-connected degenerate topology replays the **island**
//!   golden snapshot byte-for-byte (the cellular loop *is* the island
//!   model at that point of the locality continuum);
//! * the featured ring configuration has its own committed golden,
//!   reproduced bit-for-bit serially, under 2- and 4-worker parallel
//!   evaluation, after kill/resume through checkpoint text, with a
//!   stage-timing sink attached, and with a live metrics registry
//!   (engine bundle + run sink) attached;
//! * a proptest kills a run at an *arbitrary* merge boundary and
//!   requires the resumed run to match the uninterrupted one exactly.
//!
//! Re-record snapshots with
//! `UPDATE_GOLDEN=1 cargo test -p integration-tests --test cellular`.

use analog_dse::engine::EvaluatorKind;
use analog_dse::moea::problems::Schaffer;
use analog_dse::moea::{EngineSetup, RunOutcome, RunStatus};
use analog_dse::sacga::cellular::{CellularConfig, CellularGa};
use analog_dse::sacga::island::{IslandConfig, IslandGa};
use analog_dse::sacga::telemetry::Optimizer;
use analog_dse::sacga::topology::Topology;
use analog_dse::sacga::CellularCheckpoint;
use proptest::prelude::*;

mod common;
use common::{check_golden, render_front};

const SEED: u64 = 42;

/// The island reference configuration: 32 individuals over 4 islands,
/// migrating 2 rank-0 members every 5 generations.
fn island_config() -> CellularConfig {
    IslandConfig::builder()
        .population_size(32)
        .generations(20)
        .islands(4)
        .migration_interval(5)
        .migrants(2)
        .build()
        .unwrap()
}

/// The same run shape on the degenerate fully-connected topology with
/// closed mating — the configuration that must replay the island golden.
fn degenerate_config() -> CellularConfig {
    CellularConfig::builder()
        .population_size(32)
        .generations(20)
        .topology(Topology::FullyConnected { cells: 4 })
        .migration_interval(5)
        .migrants(2)
        .build()
        .unwrap()
}

/// The featured cellular configuration: a radius-1 ring of 4 cells with
/// mild anisotropic open mating — topologically local, unlike any
/// island run.
fn ring_builder() -> analog_dse::sacga::cellular::CellularConfigBuilder {
    CellularConfig::builder()
        .population_size(32)
        .generations(20)
        .topology(Topology::Ring {
            cells: 4,
            radius: 1,
        })
        .migration_interval(5)
        .migrants(2)
        .openness(0.25)
        .anisotropy(0.75)
}

fn ring_config() -> CellularConfig {
    ring_builder().build().unwrap()
}

#[test]
fn island_front_matches_snapshot() {
    let r = IslandGa::new(Schaffer::new(), island_config())
        .run_seeded(SEED)
        .unwrap();
    check_golden("island_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn fully_connected_cellular_replays_the_island_golden() {
    // The tentpole degeneracy claim: on a fully-connected graph with
    // openness 0 the cellular loop consumes the exact RNG stream the
    // island model does, so it must reproduce the *island* snapshot —
    // not merely its own.
    let r = CellularGa::new(Schaffer::new(), degenerate_config())
        .run_seeded(SEED)
        .unwrap();
    check_golden("island_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn cellular_serial_front_matches_snapshot() {
    let r = CellularGa::new(Schaffer::new(), ring_config())
        .run_seeded(SEED)
        .unwrap();
    check_golden("cellular_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn cellular_parallel_fronts_match_snapshot_across_worker_counts() {
    // All cells submit through one shared session and completions drain
    // in submission order, so worker count {1, 2, 4} is invisible.
    for threads in [2usize, 4] {
        let cfg = ring_builder()
            .engine_setup(EngineSetup::new().evaluator(EvaluatorKind::ParallelWith(threads)))
            .build()
            .unwrap();
        let r = CellularGa::new(Schaffer::new(), cfg)
            .run_seeded(SEED)
            .unwrap();
        check_golden("cellular_schaffer_seed42.txt", &render_front(&r.front));
    }
}

#[test]
fn cellular_kill_and_resume_front_matches_snapshot() {
    let ga = CellularGa::new(Schaffer::new(), ring_config());
    let cp = match ga.run_until(SEED, 9).unwrap() {
        RunStatus::Suspended(cp) => cp,
        RunStatus::Complete(_) => panic!("run should suspend at gen 9"),
    };
    // Round-trip through the text format, as a daemon restart would.
    let restored = CellularCheckpoint::from_text(&cp.to_text()).unwrap();
    assert_eq!(restored, *cp);
    let r = ga.resume(&restored).unwrap();
    check_golden("cellular_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn cellular_front_with_stage_timing_enabled_matches_snapshot() {
    // Stage timers read the monotonic clock but never the RNG, so a run
    // with timing collection forced on reproduces the snapshot bit for
    // bit; payloads are wall-clock, only their count is checked.
    use analog_dse::sacga::telemetry::{EventKind, RunEvent, Sink};

    struct TimingOnly(usize);
    impl Sink for TimingOnly {
        fn record(&mut self, event: &RunEvent) {
            assert!(matches!(event, RunEvent::StageTiming { .. }));
            self.0 += 1;
        }
        fn wants(&self, kind: EventKind) -> bool {
            kind == EventKind::StageTiming
        }
    }

    let mut sink = TimingOnly(0);
    let r = CellularGa::new(Schaffer::new(), ring_config())
        .run_with(SEED, &mut sink)
        .unwrap();
    check_golden("cellular_schaffer_seed42.txt", &render_front(&r.front));
    assert_eq!(sink.0, r.generations);
}

#[test]
fn cellular_front_with_metrics_registry_attached_matches_snapshot() {
    // Publishing the run into a live registry — the engine bundle plus
    // the run-level sink — is pure observation: the golden front is
    // reproduced bit for bit and the scraped counters balance.
    use analog_dse::engine::{EngineMetrics, MetricsRegistry};
    use analog_dse::sacga::telemetry::RegistrySink;

    let registry = MetricsRegistry::new();
    let labels = [("arm", "cellular")];
    let metrics = EngineMetrics::register(&registry, &labels);
    let cfg = ring_builder()
        .engine_setup(EngineSetup::new().metrics(metrics.clone()))
        .build()
        .unwrap();
    let mut sink = RegistrySink::register(&registry, &labels);
    let r = CellularGa::new(Schaffer::new(), cfg)
        .run_with(SEED, &mut sink)
        .unwrap();
    check_golden("cellular_schaffer_seed42.txt", &render_front(&r.front));
    assert_eq!(metrics.candidates.get(), r.stats.candidates);
    assert_eq!(
        metrics.candidates.get(),
        metrics.evaluations.get() + metrics.cache_hits.get() + metrics.screened.get()
    );
    let text = registry.render_text();
    assert!(text.contains("dse_run_generations_total{arm=\"cellular\"} 20"));
}

/// Strips wall-clock fields that legitimately differ between a split
/// run and an uninterrupted one.
fn scrub(mut s: analog_dse::engine::EngineStats) -> analog_dse::engine::EngineStats {
    s.eval_time = std::time::Duration::ZERO;
    s.backoff_time = std::time::Duration::ZERO;
    s
}

proptest! {
    #[test]
    fn cellular_kill_resume_at_any_merge_boundary_is_lossless(
        seed in 0u64..1000,
        stop_frac in 0.0f64..1.0,
        openness in 0.0f64..1.0,
        interval in 1usize..8,
    ) {
        // Every generation boundary is a merge boundary (all submissions
        // drained), so a kill at *any* stop fraction, round-tripped
        // through checkpoint text, must resume to the exact bytes of the
        // uninterrupted run.
        let gens = 8usize;
        let make = || {
            CellularConfig::builder()
                .population_size(24)
                .generations(gens)
                .topology(Topology::Ring { cells: 3, radius: 1 })
                .migration_interval(interval)
                .migrants(1)
                .openness(openness)
                .build()
                .unwrap()
        };
        let ga = CellularGa::new(Schaffer::new(), make());
        let full = ga.run_seeded(seed).unwrap();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let stop = ((gens as f64) * stop_frac) as usize;
        // stop_frac < 1.0, so stop < gens and the run must suspend.
        let cp = match ga.run_until(seed, stop).unwrap() {
            RunStatus::Suspended(cp) => cp,
            RunStatus::Complete(_) => panic!("stop {stop} < gens {gens} must suspend"),
        };
        prop_assert_eq!(cp.gen, stop);
        let restored = CellularCheckpoint::from_text(&cp.to_text()).unwrap();
        prop_assert_eq!(&restored, &*cp);
        let resumed = ga.resume(&restored).unwrap();
        prop_assert_eq!(resumed.front_objectives(), full.front_objectives());
        prop_assert_eq!(&resumed.history, &full.history);
        prop_assert_eq!(resumed.stats.evaluations, full.stats.evaluations);
        prop_assert_eq!(scrub(resumed.stats.clone()), scrub(full.stats.clone()));
        let genes = |r: &RunOutcome| r
            .population
            .iter()
            .map(|m| m.genes.clone())
            .collect::<Vec<_>>();
        prop_assert_eq!(genes(&resumed), genes(&full));
    }
}
