//! Golden-master determinism tests: fixed-seed SACGA, MESACGA and
//! NSGA-II fronts are committed as snapshots under `tests/golden/`, rendered with exact
//! f64 bit patterns. A run must reproduce its snapshot byte-for-byte
//! whether it is evaluated serially, evaluated in parallel, or killed at
//! a generation boundary and resumed — any drift in the optimizer's
//! arithmetic, RNG consumption, or checkpoint restore shows up here.
//!
//! To re-record after an intentional behavior change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test golden_master
//! ```

use analog_dse::engine::EvaluatorKind;
use analog_dse::moea::nsga2::{Nsga2, Nsga2Config};
use analog_dse::moea::problems::{Dtlz2, Schaffer, Tanaka};
use analog_dse::moea::{EngineSetup, Problem, RunOutcome, RunStatus};
use analog_dse::sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use analog_dse::sacga::sacga::{Sacga, SacgaConfig, SacgaConfigBuilder};
use analog_dse::sacga::steady::{SteadyConfig, SteadySacga};
use analog_dse::sacga::telemetry::Optimizer;

mod common;
use common::{check_golden, render_front};

const SEED: u64 = 42;

fn sacga_config() -> SacgaConfig {
    SacgaConfig::builder()
        .population_size(32)
        .generations(20)
        .partitions(5)
        .build()
        .unwrap()
}

fn mesacga_config() -> MesacgaConfig {
    MesacgaConfig::builder()
        .population_size(32)
        .phase1_max(5)
        .phases(vec![
            PhaseSpec::new(6, 7),
            PhaseSpec::new(3, 7),
            PhaseSpec::new(1, 7),
        ])
        .build()
        .unwrap()
}

#[test]
fn sacga_serial_front_matches_snapshot() {
    let r = Sacga::new(Schaffer::new(), sacga_config())
        .run_seeded(SEED)
        .unwrap();
    check_golden("sacga_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn sacga_parallel_front_matches_snapshot() {
    let cfg = SacgaConfig::builder()
        .population_size(32)
        .generations(20)
        .partitions(5)
        .engine_setup(EngineSetup::new().evaluator(EvaluatorKind::ParallelWith(4)))
        .build()
        .unwrap();
    let r = Sacga::new(Schaffer::new(), cfg).run_seeded(SEED).unwrap();
    check_golden("sacga_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn sacga_kill_and_resume_front_matches_snapshot() {
    let ga = Sacga::new(Schaffer::new(), sacga_config());
    let cp = match ga.run_until(SEED, 9).unwrap() {
        RunStatus::Suspended(cp) => cp,
        RunStatus::Complete(_) => panic!("run should suspend at gen 9"),
    };
    // Simulate a process restart: the checkpoint crosses a text boundary.
    let cp = analog_dse::sacga::SacgaCheckpoint::from_text(&cp.to_text()).unwrap();
    let r = ga.resume(&cp).unwrap();
    check_golden("sacga_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn mesacga_serial_front_matches_snapshot() {
    let r = Mesacga::new(Schaffer::new(), mesacga_config())
        .run_seeded(SEED)
        .unwrap();
    check_golden("mesacga_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn mesacga_parallel_front_matches_snapshot() {
    let cfg = MesacgaConfig::builder()
        .population_size(32)
        .phase1_max(5)
        .phases(vec![
            PhaseSpec::new(6, 7),
            PhaseSpec::new(3, 7),
            PhaseSpec::new(1, 7),
        ])
        .engine_setup(EngineSetup::new().evaluator(EvaluatorKind::ParallelWith(4)))
        .build()
        .unwrap();
    let r = Mesacga::new(Schaffer::new(), cfg).run_seeded(SEED).unwrap();
    check_golden("mesacga_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn mesacga_kill_and_resume_front_matches_snapshot() {
    let ga = Mesacga::new(Schaffer::new(), mesacga_config());
    // Stop inside the second expanding phase (phase I ends at gen 1 on
    // the unconstrained Schaffer problem, phases run 7 generations each).
    let cp = match ga.run_until(SEED, 12).unwrap() {
        RunStatus::Suspended(cp) => cp,
        RunStatus::Complete(_) => panic!("run should suspend at gen 12"),
    };
    let cp = analog_dse::sacga::MesacgaCheckpoint::from_text(&cp.to_text()).unwrap();
    let r = ga.resume(&cp).unwrap();
    check_golden("mesacga_schaffer_seed42.txt", &render_front(&r.front));
}

fn steady_config() -> SteadyConfig {
    SteadyConfig::builder()
        .population_size(32)
        .generations(20)
        .partitions(5)
        .window(48)
        .quantum(8)
        .build()
        .unwrap()
}

#[test]
fn steady_serial_front_matches_snapshot() {
    let r = SteadySacga::new(Schaffer::new(), steady_config())
        .run_seeded(SEED)
        .unwrap();
    check_golden("steady_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn steady_parallel_front_matches_snapshot() {
    let cfg = SteadyConfig::builder()
        .population_size(32)
        .generations(20)
        .partitions(5)
        .window(48)
        .quantum(8)
        .engine_setup(EngineSetup::new().evaluator(EvaluatorKind::ParallelWith(4)))
        .build()
        .unwrap();
    let r = SteadySacga::new(Schaffer::new(), cfg)
        .run_seeded(SEED)
        .unwrap();
    check_golden("steady_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn steady_kill_and_resume_front_matches_snapshot() {
    let ga = SteadySacga::new(Schaffer::new(), steady_config());
    let cp = match ga.run_until(SEED, 9).unwrap() {
        RunStatus::Suspended(cp) => cp,
        RunStatus::Complete(_) => panic!("run should suspend at gen 9"),
    };
    // The look-ahead runs ahead of the merge frontier, so the rescued
    // pending evaluations cross the text boundary too.
    let cp = analog_dse::sacga::SteadyCheckpoint::from_text(&cp.to_text()).unwrap();
    let r = ga.resume(&cp).unwrap();
    check_golden("steady_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn steady_degenerate_window_matches_the_sacga_snapshot() {
    // With window == quantum == population_size the steady loop executes
    // the generational schedule exactly, so it must reproduce the
    // *generational* SACGA golden byte for byte.
    let cfg = SteadyConfig::builder()
        .population_size(32)
        .generations(20)
        .partitions(5)
        .window(32)
        .quantum(32)
        .build()
        .unwrap();
    let r = SteadySacga::new(Schaffer::new(), cfg)
        .run_seeded(SEED)
        .unwrap();
    check_golden("sacga_schaffer_seed42.txt", &render_front(&r.front));
}

/// NSGA-II, the paper's TPG baseline, on a constrained and a
/// three-objective problem: Tanaka's early generations have no feasible
/// member, so ranking by violation alone is pinned, and DTLZ2's third
/// objective pins the sort's general pair loop.
fn nsga2_run<P: Problem + Sync>(
    problem: P,
    generations: usize,
    evaluator: EvaluatorKind,
) -> RunOutcome {
    let cfg = Nsga2Config::builder()
        .population_size(40)
        .generations(generations)
        .engine_setup(EngineSetup::new().evaluator(evaluator))
        .build()
        .unwrap();
    Nsga2::new(problem, cfg).run(SEED).unwrap()
}

#[test]
fn nsga2_tanaka_front_matches_snapshot_serially_and_in_parallel() {
    for evaluator in [EvaluatorKind::Serial, EvaluatorKind::ParallelWith(2)] {
        let r = nsga2_run(Tanaka::new(), 40, evaluator);
        assert!(r.history.iter().any(|g| g.feasible == 0));
        assert_eq!(r.front.len(), 40);
        check_golden("nsga2_tanaka_seed42.txt", &render_front(&r.front));
    }
}

#[test]
fn nsga2_dtlz2_front_matches_snapshot_serially_and_in_parallel() {
    for evaluator in [EvaluatorKind::Serial, EvaluatorKind::ParallelWith(2)] {
        let r = nsga2_run(Dtlz2::new(3, 10), 30, evaluator);
        assert_eq!(r.front.len(), 40);
        check_golden("nsga2_dtlz2_seed42.txt", &render_front(&r.front));
    }
}

/// Population 40 with a phase-I cap of 3 lets every partition of the
/// drivable problem turn feasible, so the snapshot pins a real front
/// (21 members) rather than an empty one.
fn drivable_builder() -> SacgaConfigBuilder {
    let (lo, hi) = analog_circuits::DrivableLoadProblem::slice_range();
    SacgaConfig::builder()
        .population_size(40)
        .generations(6)
        .partitions(4)
        .phase1_max(3)
        .slice_range(lo, hi)
}

#[test]
fn sacga_drivable_front_matches_snapshot() {
    let problem = analog_circuits::DrivableLoadProblem::new(analog_circuits::Spec::featured());
    let r = Sacga::new(problem, drivable_builder().build().unwrap())
        .run_seeded(SEED)
        .unwrap();
    assert!(!r.front.is_empty());
    check_golden("sacga_drivable_seed42.txt", &render_front(&r.front));
}

#[test]
fn sacga_drivable_with_never_screen_matches_the_same_snapshot() {
    // A never-firing surrogate screen is a provable no-op.
    use analog_circuits::surrogate::{drivable_screen, ScreenThresholds};
    let problem = analog_circuits::DrivableLoadProblem::new(analog_circuits::Spec::featured());
    let screen = drivable_screen(problem.process(), ScreenThresholds::never());
    let cfg = drivable_builder()
        .engine_setup(EngineSetup::new().surrogate_screen(screen))
        .build()
        .unwrap();
    let r = Sacga::new(problem, cfg).run_seeded(SEED).unwrap();
    assert!(!r.front.is_empty());
    check_golden("sacga_drivable_seed42.txt", &render_front(&r.front));
}

#[test]
fn sacga_schaffer_with_never_screen_matches_the_same_snapshot() {
    use analog_dse::engine::SurrogateScreen;
    let cfg = SacgaConfig::builder()
        .population_size(32)
        .generations(20)
        .partitions(5)
        .engine_setup(
            EngineSetup::new()
                .surrogate_screen(SurrogateScreen::new("never", |_genes: &[f64]| None)),
        )
        .build()
        .unwrap();
    let r = Sacga::new(Schaffer::new(), cfg).run_seeded(SEED).unwrap();
    check_golden("sacga_schaffer_seed42.txt", &render_front(&r.front));
}

#[test]
fn sacga_front_with_jsonl_sink_attached_matches_snapshot() {
    // ISSUE acceptance: instrumentation must not perturb the run — the
    // golden front is reproduced bit for bit with a JSONL sink attached,
    // and every logged line parses back into a RunEvent.
    use analog_dse::sacga::telemetry::{JsonlSink, RunEvent, Sink};

    let mut sink = JsonlSink::new(Vec::new());
    let r = Sacga::new(Schaffer::new(), sacga_config())
        .run_with(SEED, &mut sink)
        .unwrap();
    check_golden("sacga_schaffer_seed42.txt", &render_front(&r.front));

    sink.flush().unwrap();
    let log = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    let events: Vec<RunEvent> = log
        .lines()
        .map(|l| RunEvent::from_json(l).expect("log line parses"))
        .collect();
    assert_eq!(events.len() as u64, log.lines().count() as u64);
    let ends = events
        .iter()
        .filter(|e| matches!(e, RunEvent::GenerationEnd { .. }))
        .count();
    assert_eq!(ends, r.generations);
}

#[test]
fn mesacga_front_with_memory_sink_attached_matches_snapshot() {
    use analog_dse::sacga::telemetry::MemorySink;

    let mut sink = MemorySink::new();
    let r = Mesacga::new(Schaffer::new(), mesacga_config())
        .run_with(SEED, &mut sink)
        .unwrap();
    check_golden("mesacga_schaffer_seed42.txt", &render_front(&r.front));
    assert!(!sink.events().is_empty());
}

#[test]
fn sacga_front_with_stage_timing_enabled_matches_snapshot() {
    // Stage timers read the monotonic clock but never the RNG, so a
    // run with timing collection forced on (a sink wanting only
    // `StageTiming`) reproduces the committed snapshot bit for bit.
    // The timing payloads themselves are wall-clock and are *not* part
    // of any golden comparison — only their count is checked.
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
    let r = Sacga::new(Schaffer::new(), sacga_config())
        .run_with(SEED, &mut sink)
        .unwrap();
    check_golden("sacga_schaffer_seed42.txt", &render_front(&r.front));
    assert_eq!(sink.0, r.generations);
}

#[test]
fn sacga_front_with_metrics_registry_attached_matches_snapshot() {
    // ISSUE acceptance: mirroring the run into a live metrics registry
    // (engine counter/histogram bundle + run-trajectory sink) is pure
    // observation — the committed golden front is reproduced bit for
    // bit, and the scraped counters balance exactly.
    use analog_dse::engine::{EngineMetrics, MetricsRegistry};
    use analog_dse::sacga::telemetry::RegistrySink;

    let registry = MetricsRegistry::new();
    let labels = [("arm", "sacga")];
    let metrics = EngineMetrics::register(&registry, &labels);
    let cfg = SacgaConfig::builder()
        .population_size(32)
        .generations(20)
        .partitions(5)
        .engine_setup(EngineSetup::new().metrics(metrics.clone()))
        .build()
        .unwrap();
    let mut sink = RegistrySink::register(&registry, &labels);
    let r = Sacga::new(Schaffer::new(), cfg)
        .run_with(SEED, &mut sink)
        .unwrap();
    check_golden("sacga_schaffer_seed42.txt", &render_front(&r.front));
    assert_eq!(metrics.candidates.get(), r.stats.candidates);
    assert_eq!(
        metrics.candidates.get(),
        metrics.evaluations.get() + metrics.cache_hits.get() + metrics.screened.get()
    );
    assert_eq!(metrics.eval_latency.count(), metrics.evaluations.get());
    let text = registry.render_text();
    assert!(text.contains("dse_run_generations_total{arm=\"sacga\"} 20"));
}

#[test]
fn mesacga_front_with_metrics_registry_attached_matches_snapshot() {
    use analog_dse::engine::{EngineMetrics, MetricsRegistry};
    use analog_dse::sacga::telemetry::RegistrySink;

    let registry = MetricsRegistry::new();
    let labels = [("arm", "mesacga")];
    let metrics = EngineMetrics::register(&registry, &labels);
    let cfg = MesacgaConfig::builder()
        .population_size(32)
        .phase1_max(5)
        .phases(vec![
            PhaseSpec::new(6, 7),
            PhaseSpec::new(3, 7),
            PhaseSpec::new(1, 7),
        ])
        .engine_setup(EngineSetup::new().metrics(metrics.clone()))
        .build()
        .unwrap();
    let mut sink = RegistrySink::register(&registry, &labels);
    let r = Mesacga::new(Schaffer::new(), cfg)
        .run_with(SEED, &mut sink)
        .unwrap();
    check_golden("mesacga_schaffer_seed42.txt", &render_front(&r.front));
    assert_eq!(
        metrics.candidates.get(),
        metrics.evaluations.get() + metrics.cache_hits.get() + metrics.screened.get()
    );
}

#[test]
fn steady_front_with_metrics_registry_attached_matches_snapshot() {
    use analog_dse::engine::{EngineMetrics, MetricsRegistry};
    use analog_dse::sacga::telemetry::RegistrySink;

    let registry = MetricsRegistry::new();
    let labels = [("arm", "steady")];
    let metrics = EngineMetrics::register(&registry, &labels);
    let cfg = SteadyConfig::builder()
        .population_size(32)
        .generations(20)
        .partitions(5)
        .window(48)
        .quantum(8)
        .engine_setup(EngineSetup::new().metrics(metrics.clone()))
        .build()
        .unwrap();
    let mut sink = RegistrySink::register(&registry, &labels);
    let r = SteadySacga::new(Schaffer::new(), cfg)
        .run_with(SEED, &mut sink)
        .unwrap();
    check_golden("steady_schaffer_seed42.txt", &render_front(&r.front));
    assert_eq!(
        metrics.candidates.get(),
        metrics.evaluations.get() + metrics.cache_hits.get() + metrics.screened.get()
    );
}

#[test]
fn local_island_nsga2_fronts_are_unchanged_by_an_attached_registry() {
    // The remaining loops have no committed snapshot; pin instead that
    // a bare run and a registry-attached run of the same seed produce
    // identical fronts, and that each bundle balances.
    use analog_dse::engine::{EngineMetrics, MetricsRegistry};
    use analog_dse::moea::nsga2::{Nsga2, Nsga2Config};
    use analog_dse::sacga::local::LocalCompetitionGaBuilder;
    use analog_dse::sacga::{IslandConfig, IslandGa};

    let registry = MetricsRegistry::new();
    let balances = |m: &EngineMetrics| {
        assert!(m.candidates.get() > 0);
        assert_eq!(
            m.candidates.get(),
            m.evaluations.get() + m.cache_hits.get() + m.screened.get()
        );
    };

    let local = |metrics: Option<EngineMetrics>| {
        let mut b = LocalCompetitionGaBuilder::new()
            .population_size(24)
            .generations(12)
            .partitions(4);
        if let Some(m) = metrics {
            b = b.engine_setup(EngineSetup::new().metrics(m));
        }
        b.build(Schaffer::new()).unwrap().run_seeded(SEED).unwrap()
    };
    let m = EngineMetrics::register(&registry, &[("arm", "local")]);
    assert_eq!(
        local(None).front_objectives(),
        local(Some(m.clone())).front_objectives()
    );
    balances(&m);

    let island = |metrics: Option<EngineMetrics>| {
        let mut b = IslandConfig::builder()
            .population_size(24)
            .generations(12)
            .islands(3);
        if let Some(m) = metrics {
            b = b.engine_setup(EngineSetup::new().metrics(m));
        }
        IslandGa::new(Schaffer::new(), b.build().unwrap())
            .run_seeded(SEED)
            .unwrap()
    };
    let m = EngineMetrics::register(&registry, &[("arm", "island")]);
    assert_eq!(
        island(None).front_objectives(),
        island(Some(m.clone())).front_objectives()
    );
    balances(&m);

    let nsga2 = |metrics: Option<EngineMetrics>| {
        let mut b = Nsga2Config::builder().population_size(24).generations(12);
        if let Some(m) = metrics {
            b = b.engine_setup(EngineSetup::new().metrics(m));
        }
        Nsga2::new(Schaffer::new(), b.build().unwrap())
            .run(SEED)
            .unwrap()
    };
    let m = EngineMetrics::register(&registry, &[("arm", "nsga2")]);
    assert_eq!(
        nsga2(None).front_objectives(),
        nsga2(Some(m.clone())).front_objectives()
    );
    balances(&m);
}

#[test]
fn mesacga_front_with_watchdogs_attached_matches_snapshot() {
    use analog_dse::sacga::telemetry::{FaultRateAlarm, InfeasibilityAlarm, StallDetector, Tee};

    let stall = StallDetector::new(vec![16.0, 16.0], 100);
    let infeasible = InfeasibilityAlarm::new(5);
    let faults = FaultRateAlarm::new(0.01);
    let mut tee = Tee::new(stall, Tee::new(infeasible, faults));
    let r = Mesacga::new(Schaffer::new(), mesacga_config())
        .run_with(SEED, &mut tee)
        .unwrap();
    check_golden("mesacga_schaffer_seed42.txt", &render_front(&r.front));
    let (stall, rest) = tee.into_inner();
    let (infeasible, faults) = rest.into_inner();
    assert!(stall.warnings().is_empty());
    assert!(infeasible.warnings().is_empty());
    assert!(faults.warnings().is_empty());
}

/// Checkpoint texts committed under `tests/golden/` pin the on-disk
/// formats that server job stores persist: a store written by an earlier
/// build must resume to the same front. Returns the committed text, or
/// records `fresh` first when `UPDATE_GOLDEN` is set.
fn checkpoint_fixture(name: &str, fresh: &str) -> String {
    let path = common::golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, fresh).unwrap();
    }
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing checkpoint fixture {}: {e}", path.display()))
}

/// Zeroes the wall-clock evaluation time, the only field of a checkpoint
/// that differs between two runs of the same seed.
fn without_eval_time(mut state: analog_dse::sacga::EngineState) -> analog_dse::sacga::EngineState {
    state.stats.eval_time = std::time::Duration::ZERO;
    state
}

#[test]
fn sacga_checkpoint_fixtures_resume_onto_the_golden() {
    use analog_dse::sacga::SacgaCheckpoint;
    let ga = Sacga::new(Schaffer::new(), sacga_config());
    // Generation 0 is inside phase I; generation 9 is inside phase II.
    for stop in [0usize, 9] {
        let RunStatus::Suspended(fresh) = ga.run_until(SEED, stop).unwrap() else {
            panic!("run should suspend at gen {stop}");
        };
        let name = format!("sacga_schaffer_seed42_gen{stop}.checkpoint");
        let stored =
            SacgaCheckpoint::from_text(&checkpoint_fixture(&name, &fresh.to_text())).unwrap();
        assert_eq!(stored.state.phase1_done, stop > 0);
        assert_eq!(
            without_eval_time(fresh.state.clone()),
            without_eval_time(stored.state.clone())
        );
        let r = ga.resume(&stored).unwrap();
        check_golden("sacga_schaffer_seed42.txt", &render_front(&r.front));
    }
}

#[test]
fn local_checkpoint_fixture_resumes_onto_the_uninterrupted_front() {
    use analog_dse::sacga::local::LocalCompetitionGaBuilder;
    use analog_dse::sacga::SacgaCheckpoint;
    let ga = LocalCompetitionGaBuilder::new()
        .population_size(32)
        .generations(20)
        .partitions(5)
        .build(Schaffer::new())
        .unwrap();
    let full = ga.run_seeded(SEED).unwrap();
    let RunStatus::Suspended(fresh) = ga.run_until(SEED, 5).unwrap() else {
        panic!("run should suspend at gen 5");
    };
    let name = "local_schaffer_seed42_gen5.checkpoint";
    let stored = SacgaCheckpoint::from_text(&checkpoint_fixture(name, &fresh.to_text())).unwrap();
    assert_eq!(
        without_eval_time(fresh.state.clone()),
        without_eval_time(stored.state.clone())
    );
    let r = ga.resume(&stored).unwrap();
    assert_eq!(render_front(&r.front), render_front(&full.front));
    assert_eq!(r.history, full.history);
}

#[test]
fn mesacga_checkpoint_fixtures_resume_onto_the_golden() {
    use analog_dse::sacga::MesacgaCheckpoint;
    let ga = Mesacga::new(Schaffer::new(), mesacga_config());
    // Phase I ends at generation 1 and each phase spans 7 generations:
    // generation 12 is inside the second phase, generation 15 is the
    // first generation of the third.
    for (stop, phase_index, phase_start) in [(12usize, 1usize, 8usize), (15, 2, 15)] {
        let RunStatus::Suspended(fresh) = ga.run_until(SEED, stop).unwrap() else {
            panic!("run should suspend at gen {stop}");
        };
        let name = format!("mesacga_schaffer_seed42_gen{stop}.checkpoint");
        let stored =
            MesacgaCheckpoint::from_text(&checkpoint_fixture(&name, &fresh.to_text())).unwrap();
        assert_eq!(
            (stored.phase_index, stored.phase_start),
            (phase_index, phase_start)
        );
        assert_eq!(stored.phase_fronts.len(), phase_index);
        let mut fresh = (*fresh).clone();
        fresh.state = without_eval_time(fresh.state);
        let mut expected = stored.clone();
        expected.state = without_eval_time(expected.state);
        assert_eq!(fresh, expected);
        let r = ga.resume(&stored).unwrap();
        check_golden("mesacga_schaffer_seed42.txt", &render_front(&r.front));
    }
}

/// The checkpoint texts the parsers are probed with: every committed
/// fixture, plus a steady and a cellular checkpoint (formats no fixture
/// covers) taken from short runs.
fn checkpoint_corpus() -> &'static [String] {
    use analog_dse::sacga::cellular::{CellularConfig, CellularGa};
    use analog_dse::sacga::topology::Topology;
    static CORPUS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = common::golden_path("");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "checkpoint"))
            .collect();
        paths.sort();
        assert!(
            paths.len() >= 5,
            "checkpoint fixtures missing in {}",
            dir.display()
        );
        let mut corpus: Vec<String> = paths
            .iter()
            .map(|path| std::fs::read_to_string(path).unwrap())
            .collect();
        let RunStatus::Suspended(steady) = SteadySacga::new(Schaffer::new(), steady_config())
            .run_until(SEED, 3)
            .unwrap()
        else {
            panic!("steady run should suspend at gen 3");
        };
        assert!(!steady.pending.is_empty());
        corpus.push(steady.to_text());
        let cellular = CellularConfig::builder()
            .population_size(24)
            .generations(6)
            .topology(Topology::Ring {
                cells: 3,
                radius: 1,
            })
            .build()
            .unwrap();
        let RunStatus::Suspended(cellular) = CellularGa::new(Schaffer::new(), cellular)
            .run_until(SEED, 3)
            .unwrap()
        else {
            panic!("cellular run should suspend at gen 3");
        };
        corpus.push(cellular.to_text());
        corpus
    })
}

/// Whether any of the four checkpoint parsers accepts `text`.
fn any_parser_accepts(text: &str) -> bool {
    use analog_dse::sacga::{
        CellularCheckpoint, MesacgaCheckpoint, SacgaCheckpoint, SteadyCheckpoint,
    };
    SacgaCheckpoint::from_text(text).is_ok()
        || MesacgaCheckpoint::from_text(text).is_ok()
        || SteadyCheckpoint::from_text(text).is_ok()
        || CellularCheckpoint::from_text(text).is_ok()
}

/// `(line, token)` of every count in a checkpoint text: the record
/// counts after `phase_fronts`, `pending`, `cells`, `partitions` and
/// `history`, the member counts of `f`, `c` and `p` records, the gene,
/// objective and violation counts of `i` records, and the `grid`
/// record's partition count.
fn count_tokens(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (l, line) in text.lines().enumerate() {
        let tokens: &[usize] = match line.split_whitespace().next() {
            Some("phase_fronts" | "pending" | "cells" | "partitions" | "history") => &[1],
            Some("f" | "c" | "p") => &[2],
            Some("i") => &[3, 4, 5],
            Some("grid") => &[4],
            _ => &[],
        };
        out.extend(tokens.iter().map(|&t| (l, t)));
    }
    out
}

proptest::proptest! {
    #[test]
    fn truncated_and_miscounted_checkpoints_are_errors(
        which in 0usize..1 << 16,
        cut in 0usize..1 << 16,
        count in 0usize..1 << 16,
        huge in 0usize..2,
    ) {
        let corpus = checkpoint_corpus();
        let text = &corpus[which % corpus.len()];
        let lines: Vec<&str> = text.lines().collect();
        proptest::prop_assert!(any_parser_accepts(text));
        // A proper prefix cut at a line boundary.
        let cut = cut % lines.len();
        let prefix: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
        proptest::prop_assert!(!any_parser_accepts(&prefix), "prefix of {cut} lines:\n{prefix}");
        // One count replaced by a value no allocation can hold.
        let counts = count_tokens(text);
        let (at, token) = counts[count % counts.len()];
        let value = ["18446744073709551615", "4611686018427387904"][huge];
        let mut tokens: Vec<&str> = lines[at].split_whitespace().collect();
        proptest::prop_assert_eq!(tokens.join(" "), lines[at]);
        tokens[token] = value;
        let corrupt: String = lines
            .iter()
            .enumerate()
            .map(|(l, line)| if l == at { tokens.join(" ") } else { (*line).to_string() } + "\n")
            .collect();
        proptest::prop_assert!(!any_parser_accepts(&corrupt), "line {at} token {token} = {value}");
    }
}
