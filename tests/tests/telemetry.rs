//! Telemetry acceptance tests for the unified `Optimizer` API: every
//! arm of both optimization loops (the partitioned loop and the
//! structured loop) emits the structured `RunEvent` stream with the same
//! invariants and a history row per generation, every arm suspends and
//! resumes, instrumentation never perturbs a seeded run, and the JSONL
//! codec round-trips every event bit-exactly.

use analog_dse::engine::EvaluatorKind;
use analog_dse::moea::nsga2::{Nsga2, Nsga2Config};
use analog_dse::moea::problems::{Schaffer, Tanaka};
use analog_dse::moea::{EngineSetup, RunOutcome, RunStatus};
use analog_dse::sacga::cellular::{CellularConfig, CellularGa};
use analog_dse::sacga::island::{IslandConfig, IslandGa};
use analog_dse::sacga::local::LocalCompetitionGaBuilder;
use analog_dse::sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use analog_dse::sacga::sacga::{Sacga, SacgaConfig};
use analog_dse::sacga::steady::{SteadyConfig, SteadySacga};
use analog_dse::sacga::telemetry::{
    EventKind, FaultRateAlarm, InfeasibilityAlarm, JsonlSink, MemorySink, MetricsSink, Optimizer,
    RunEvent, Sink, StallDetector, Tee,
};
use analog_dse::sacga::topology::Topology;
use analog_dse::sacga::CellularCheckpoint;

mod common;
use common::{check_golden, render_front};

const SEED: u64 = 23;

/// A sink that wants only `wanted` kinds and panics if a run loop hands
/// it anything else — proving the loops short-circuit on
/// [`Sink::wants`] instead of constructing and emitting unwatched
/// events.
struct CountingSink {
    wanted: &'static [EventKind],
    counts: Vec<(EventKind, usize)>,
}

impl CountingSink {
    fn new(wanted: &'static [EventKind]) -> Self {
        CountingSink {
            wanted,
            counts: Vec::new(),
        }
    }

    fn count(&self, kind: EventKind) -> usize {
        self.counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }
}

impl Sink for CountingSink {
    fn record(&mut self, event: &RunEvent) {
        let kind = event.kind();
        assert!(
            self.wanted.contains(&kind),
            "loop recorded unwatched event kind {kind:?}"
        );
        match self.counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.counts.push((kind, 1)),
        }
    }

    fn wants(&self, kind: EventKind) -> bool {
        self.wanted.contains(&kind)
    }
}

fn generation_ends(events: &[RunEvent]) -> Vec<usize> {
    events
        .iter()
        .filter_map(|e| match e {
            RunEvent::GenerationEnd { generation, .. } => Some(*generation),
            _ => None,
        })
        .collect()
}

/// Runs `ga` twice — bare and instrumented — and checks the core stream
/// invariants: bit-identical outcomes, and exactly one `GenerationEnd`
/// per executed generation, in order, none for the initial population.
fn check_stream_invariants<O: Optimizer>(ga: &O) -> (RunOutcome, Vec<RunEvent>) {
    let bare = ga.run(SEED).unwrap();
    let mut sink = MemorySink::new();
    let watched = ga.run_with(SEED, &mut sink).unwrap();
    assert_eq!(
        bare.front_objectives(),
        watched.front_objectives(),
        "{}: sink attached must not perturb the run",
        ga.algorithm()
    );
    assert_eq!(bare.history, watched.history, "{}", ga.algorithm());
    assert_eq!(
        bare.stats.evaluations,
        watched.stats.evaluations,
        "{}",
        ga.algorithm()
    );
    let ends = generation_ends(sink.events());
    assert_eq!(
        ends,
        (1..=watched.generations).collect::<Vec<_>>(),
        "{}: one GenerationEnd per executed generation",
        ga.algorithm()
    );
    (watched, sink.into_events())
}

#[test]
fn all_five_algorithms_emit_one_generation_end_per_generation() {
    let (_, nsga2_events) = check_stream_invariants(&Nsga2::new(
        Schaffer::new(),
        Nsga2Config::builder()
            .population_size(20)
            .generations(12)
            .build()
            .unwrap(),
    ));
    assert!(nsga2_events
        .iter()
        .all(|e| !matches!(e, RunEvent::PhaseTransition { .. })));

    check_stream_invariants(
        &LocalCompetitionGaBuilder::new()
            .population_size(20)
            .generations(12)
            .partitions(4)
            .build(Schaffer::new())
            .unwrap(),
    );

    let (sacga_out, sacga_events) = check_stream_invariants(&Sacga::new(
        Schaffer::new(),
        SacgaConfig::builder()
            .population_size(24)
            .generations(15)
            .partitions(4)
            .build()
            .unwrap(),
    ));
    let transitions: Vec<&RunEvent> = sacga_events
        .iter()
        .filter(|e| matches!(e, RunEvent::PhaseTransition { .. }))
        .collect();
    assert_eq!(transitions.len(), 1, "SACGA crosses one phase boundary");
    assert!(matches!(
        transitions[0],
        RunEvent::PhaseTransition { generation, .. } if *generation == sacga_out.gen_t
    ));

    let (mes_out, mes_events) = check_stream_invariants(&Mesacga::new(
        Schaffer::new(),
        MesacgaConfig::builder()
            .population_size(24)
            .phase1_max(5)
            .phases(vec![PhaseSpec::new(4, 6), PhaseSpec::new(1, 6)])
            .build()
            .unwrap(),
    ));
    let phases = mes_events
        .iter()
        .filter(|e| matches!(e, RunEvent::PhaseTransition { .. }))
        .count();
    assert_eq!(phases, 2, "one PhaseTransition per expanding phase");
    assert_eq!(mes_out.phase_fronts.len(), 2);

    let (island_out, island_events) = check_stream_invariants(&IslandGa::new(
        Schaffer::new(),
        IslandConfig::builder()
            .population_size(32)
            .generations(20)
            .islands(4)
            .migration_interval(5)
            .migrants(2)
            .build()
            .unwrap(),
    ));
    let migrations = island_events
        .iter()
        .filter(|e| matches!(e, RunEvent::Promotion { .. }))
        .count();
    assert_eq!(migrations, island_out.migrations);
}

/// `RunOutcome::history` holds one row per generation boundary,
/// starting with the initial population's row 0.
fn check_history_rows<O: Optimizer>(ga: &O, population: usize) {
    let r = ga.run(SEED).unwrap();
    let rows: Vec<usize> = r.history.iter().map(|h| h.generation).collect();
    assert_eq!(
        rows,
        (0..=r.generations).collect::<Vec<_>>(),
        "{}: rows 0..=G",
        ga.algorithm()
    );
    assert_eq!(r.history[0].population, population, "{}", ga.algorithm());
}

#[test]
fn every_arm_records_a_history_row_for_generation_zero() {
    check_history_rows(
        &Nsga2::new(
            Schaffer::new(),
            Nsga2Config::builder()
                .population_size(20)
                .generations(6)
                .build()
                .unwrap(),
        ),
        20,
    );
    check_history_rows(
        &LocalCompetitionGaBuilder::new()
            .population_size(20)
            .generations(6)
            .partitions(4)
            .build(Schaffer::new())
            .unwrap(),
        20,
    );
    check_history_rows(
        &Sacga::new(
            Schaffer::new(),
            SacgaConfig::builder()
                .population_size(20)
                .generations(6)
                .partitions(4)
                .build()
                .unwrap(),
        ),
        20,
    );
    check_history_rows(
        &Mesacga::new(
            Schaffer::new(),
            MesacgaConfig::builder()
                .population_size(20)
                .phase1_max(2)
                .phases(vec![PhaseSpec::new(2, 3), PhaseSpec::new(1, 3)])
                .build()
                .unwrap(),
        ),
        20,
    );
    check_history_rows(
        &SteadySacga::new(
            Schaffer::new(),
            SteadyConfig::builder()
                .population_size(20)
                .generations(6)
                .partitions(4)
                .build()
                .unwrap(),
        ),
        20,
    );
    check_history_rows(
        &IslandGa::new(
            Schaffer::new(),
            IslandConfig::builder()
                .population_size(20)
                .generations(6)
                .islands(2)
                .build()
                .unwrap(),
        ),
        20,
    );
    check_history_rows(
        &CellularGa::new(
            Schaffer::new(),
            CellularConfig::builder()
                .population_size(32)
                .generations(6)
                .topology(Topology::Ring {
                    cells: 4,
                    radius: 1,
                })
                .openness(0.25)
                .build()
                .unwrap(),
        ),
        32,
    );
}

#[test]
fn jsonl_log_round_trips_into_the_memory_stream() {
    // Tee a run into a memory sink and a JSONL byte buffer; parsing the
    // log back must reproduce the in-memory event sequence exactly,
    // floats included.
    let ga = Sacga::new(
        Schaffer::new(),
        SacgaConfig::builder()
            .population_size(24)
            .generations(12)
            .partitions(4)
            .build()
            .unwrap(),
    );
    let mut tee = Tee::new(MemorySink::new(), JsonlSink::new(Vec::new()));
    ga.run_with(SEED, &mut tee).unwrap();
    tee.flush().unwrap();
    let (memory, jsonl) = tee.into_inner();
    let lines_written = jsonl.lines_written();
    let log = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
    let replayed: Vec<RunEvent> = log
        .lines()
        .map(|l| RunEvent::from_json(l).expect("line parses"))
        .collect();
    assert_eq!(replayed.len() as u64, lines_written);
    assert_eq!(replayed, memory.into_events());
}

#[test]
fn resumed_runs_emit_events_only_for_generations_they_execute() {
    let ga = Sacga::new(
        Schaffer::new(),
        SacgaConfig::builder()
            .population_size(24)
            .generations(14)
            .partitions(4)
            .build()
            .unwrap(),
    );
    let mut first = MemorySink::new();
    let cp = match ga.run_until_with(SEED, 6, &mut first).unwrap() {
        RunStatus::Suspended(cp) => cp,
        RunStatus::Complete(_) => panic!("run should suspend at gen 6"),
    };
    assert_eq!(generation_ends(first.events()), (1..=6).collect::<Vec<_>>());
    assert!(first
        .events()
        .iter()
        .any(|e| matches!(e, RunEvent::CheckpointWritten { generation: 6 })));

    let mut second = MemorySink::new();
    let resumed = ga.resume_with(&cp, &mut second).unwrap();
    assert_eq!(resumed.generations, 14);
    // Pre-checkpoint history is restored but not replayed as events.
    assert_eq!(
        generation_ends(second.events()),
        (7..=14).collect::<Vec<_>>()
    );
}

#[test]
fn metrics_sink_computes_one_row_per_generation() {
    let ga = Mesacga::new(
        Schaffer::new(),
        MesacgaConfig::builder()
            .population_size(24)
            .phase1_max(5)
            .phases(vec![PhaseSpec::new(4, 6), PhaseSpec::new(1, 6)])
            .build()
            .unwrap(),
    );
    let mut metrics = MetricsSink::new(vec![16.0, 16.0]).with_occupancy(0, 0.0, 4.0, 8);
    let outcome = ga.run_with(SEED, &mut metrics).unwrap();
    let rows = metrics.rows();
    assert_eq!(rows.len(), outcome.generations);
    let last = rows.last().unwrap();
    assert!(last.hypervolume > 0.0);
    assert!(last.front_size > 0);
    assert!(last.occupancy.unwrap() > 0.0);
    assert!(!metrics.wants(EventKind::Promotion));
}

/// Runs `ga` with a sink wanting only `StageTiming` (record panics on
/// any other kind) and with a sink wanting nothing (record panics on
/// everything), checking the short-circuit contract and the
/// one-StageTiming-per-generation invariant.
fn check_wants_short_circuit<O: Optimizer>(ga: &O) {
    let mut timing_only = CountingSink::new(&[EventKind::StageTiming]);
    let watched = ga.run_with(SEED, &mut timing_only).unwrap();
    assert_eq!(
        timing_only.count(EventKind::StageTiming),
        watched.generations,
        "{}: one StageTiming per executed generation",
        ga.algorithm()
    );
    let bare = ga.run(SEED).unwrap();
    assert_eq!(
        bare.front_objectives(),
        watched.front_objectives(),
        "{}: timing collection must not perturb the run",
        ga.algorithm()
    );

    let mut nothing = CountingSink::new(&[]);
    ga.run_with(SEED, &mut nothing).unwrap();
    assert!(
        nothing.counts.is_empty(),
        "{}: a sink wanting nothing must never see record()",
        ga.algorithm()
    );
}

#[test]
fn wants_short_circuits_across_all_five_loops() {
    check_wants_short_circuit(&Nsga2::new(
        Schaffer::new(),
        Nsga2Config::builder()
            .population_size(20)
            .generations(10)
            .build()
            .unwrap(),
    ));
    check_wants_short_circuit(
        &LocalCompetitionGaBuilder::new()
            .population_size(20)
            .generations(10)
            .partitions(4)
            .build(Schaffer::new())
            .unwrap(),
    );
    check_wants_short_circuit(&Sacga::new(
        Schaffer::new(),
        SacgaConfig::builder()
            .population_size(24)
            .generations(12)
            .partitions(4)
            .build()
            .unwrap(),
    ));
    check_wants_short_circuit(&Mesacga::new(
        Schaffer::new(),
        MesacgaConfig::builder()
            .population_size(24)
            .phase1_max(5)
            .phases(vec![PhaseSpec::new(4, 5), PhaseSpec::new(1, 5)])
            .build()
            .unwrap(),
    ));
    check_wants_short_circuit(&IslandGa::new(
        Schaffer::new(),
        IslandConfig::builder()
            .population_size(32)
            .generations(12)
            .islands(4)
            .migration_interval(4)
            .migrants(2)
            .build()
            .unwrap(),
    ));
}

#[test]
fn stage_timing_follows_its_generation_end_and_balances_engine_counters() {
    let ga = Sacga::new(
        Schaffer::new(),
        SacgaConfig::builder()
            .population_size(24)
            .generations(12)
            .partitions(4)
            .build()
            .unwrap(),
    );
    let mut sink = MemorySink::new();
    let outcome = ga.run_with(SEED, &mut sink).unwrap();
    let events = sink.events();
    let mut timed = 0;
    let mut replayed_evals = 0;
    for (i, event) in events.iter().enumerate() {
        let RunEvent::StageTiming {
            generation,
            stages,
            candidates,
            evaluations,
            cache_hits,
        } = event
        else {
            continue;
        };
        timed += 1;
        replayed_evals += evaluations;
        // The breakdown belongs to the generation that just ended.
        let last_end = events[..i]
            .iter()
            .rev()
            .find_map(|e| match e {
                RunEvent::GenerationEnd { generation, .. } => Some(*generation),
                _ => None,
            })
            .expect("StageTiming follows a GenerationEnd");
        assert_eq!(last_end, *generation);
        assert!(
            stages.total() > 0,
            "gen {generation}: timed spans are empty"
        );
        assert_eq!(
            *candidates,
            evaluations + cache_hits,
            "gen {generation}: engine counters must balance"
        );
    }
    assert_eq!(timed, outcome.generations);
    // Timing deltas cover everything after the initial population.
    assert!(replayed_evals > 0 && replayed_evals <= outcome.stats.evaluations);
}

#[test]
fn watchdogs_stay_silent_on_a_healthy_run() {
    let ga = Sacga::new(
        Schaffer::new(),
        SacgaConfig::builder()
            .population_size(24)
            .generations(15)
            .partitions(4)
            .phase1_max(8)
            .build()
            .unwrap(),
    );
    let stall = StallDetector::new(vec![16.0, 16.0], 50);
    let infeasible = InfeasibilityAlarm::new(8);
    let faults = FaultRateAlarm::new(0.01);
    let mut tee = Tee::new(stall, Tee::new(infeasible, faults));
    ga.run_with(SEED, &mut tee).unwrap();
    let (stall, rest) = tee.into_inner();
    let (infeasible, faults) = rest.into_inner();
    assert!(stall.warnings().is_empty(), "{:?}", stall.warnings());
    assert!(
        infeasible.warnings().is_empty(),
        "{:?}",
        infeasible.warnings()
    );
    assert!(faults.warnings().is_empty(), "{:?}", faults.warnings());
}

#[test]
fn nsga2_runs_suspend_and_resume_onto_the_tanaka_golden() {
    // NSGA-II is the one-cell cellular preset, so it checkpoints: the
    // Tanaka golden configuration stopped at generation 17, round-tripped
    // through checkpoint text and resumed reproduces the uninterrupted
    // snapshot, serially and on two workers.
    for evaluator in [EvaluatorKind::Serial, EvaluatorKind::ParallelWith(2)] {
        let tpg = Nsga2::new(
            Tanaka::new(),
            Nsga2Config::builder()
                .population_size(40)
                .generations(40)
                .engine_setup(EngineSetup::new().evaluator(evaluator))
                .build()
                .unwrap(),
        );
        let RunStatus::Suspended(cp) = tpg.run_until(42, 17).unwrap() else {
            panic!("an NSGA-II run must suspend at generation 17");
        };
        assert_eq!(cp.gen, 17);
        let text = cp.to_text();
        assert!(text.starts_with("cellular-checkpoint v1\n"));
        let resumed = tpg
            .resume(&CellularCheckpoint::from_text(&text).unwrap())
            .unwrap();
        assert_eq!(resumed.front.len(), 40);
        check_golden("nsga2_tanaka_seed42.txt", &render_front(&resumed.front));
    }
}

#[test]
fn island_runs_suspend_and_resume_onto_the_island_golden() {
    // The island model is a cellular preset, so it checkpoints: a run
    // stopped mid-way, round-tripped through checkpoint text and resumed
    // reproduces the uninterrupted island snapshot.
    let island = IslandGa::new(
        Schaffer::new(),
        IslandConfig::builder()
            .population_size(32)
            .generations(20)
            .islands(4)
            .migration_interval(5)
            .migrants(2)
            .build()
            .unwrap(),
    );
    let RunStatus::Suspended(cp) = island.run_until(42, 7).unwrap() else {
        panic!("an island run must suspend at generation 7");
    };
    let restored = CellularCheckpoint::from_text(&cp.to_text()).unwrap();
    let resumed = island.resume(&restored).unwrap();
    check_golden("island_schaffer_seed42.txt", &render_front(&resumed.front));
}

/// Checks that in every generation with a `Promotion`, the promotion is
/// recorded before that generation's `EvaluationFault`, `GenerationEnd`
/// and `StageTiming` events, and returns how many faults were reported
/// in promoting generations.
fn promotion_leads_its_generation(events: &[RunEvent]) -> usize {
    let mut faults_after_promotion = 0;
    for (i, event) in events.iter().enumerate() {
        let RunEvent::Promotion { generation, .. } = event else {
            continue;
        };
        let earlier = &events[..i];
        assert!(
            !earlier.iter().any(|e| e.generation() == *generation
                && matches!(
                    e,
                    RunEvent::EvaluationFault { .. }
                        | RunEvent::GenerationEnd { .. }
                        | RunEvent::StageTiming { .. }
                )),
            "generation {generation}: Promotion must lead its generation's events"
        );
        faults_after_promotion += events[i..]
            .iter()
            .filter(|e| {
                e.generation() == *generation && matches!(e, RunEvent::EvaluationFault { .. })
            })
            .count();
    }
    faults_after_promotion
}

#[test]
fn promotion_precedes_its_generations_faults_end_and_timing() {
    use analog_dse::engine::{FaultPlan, FaultPolicy};

    let sacga = Sacga::new(
        Schaffer::new(),
        SacgaConfig::builder()
            .population_size(24)
            .generations(14)
            .partitions(4)
            .engine_setup(
                EngineSetup::new()
                    .fault_policy(FaultPolicy::tolerant(3))
                    .inject_faults(FaultPlan::seeded(31).panics(0.08).nonfinite(0.04)),
            )
            .build()
            .unwrap(),
    );
    let mesacga = Mesacga::new(
        Schaffer::new(),
        MesacgaConfig::builder()
            .population_size(24)
            .phase1_max(4)
            .phases(vec![PhaseSpec::new(4, 6), PhaseSpec::new(1, 6)])
            .engine_setup(
                EngineSetup::new()
                    .fault_policy(FaultPolicy::tolerant(3))
                    .inject_faults(FaultPlan::seeded(32).panics(0.08).nonfinite(0.04)),
            )
            .build()
            .unwrap(),
    );
    let mut sacga_sink = MemorySink::new();
    let sacga_out = sacga.run_with(SEED, &mut sacga_sink).unwrap();
    let mut mesacga_sink = MemorySink::new();
    let mesacga_out = mesacga.run_with(SEED, &mut mesacga_sink).unwrap();
    for (name, out, events) in [
        ("sacga", sacga_out, sacga_sink.events()),
        ("mesacga", mesacga_out, mesacga_sink.events()),
    ] {
        let promotions = events
            .iter()
            .filter(|e| matches!(e, RunEvent::Promotion { .. }))
            .count();
        assert_eq!(promotions, out.generations - out.gen_t, "{name}");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RunEvent::StageTiming { .. })),
            "{name}: the stream carries stage timing"
        );
        assert!(
            promotion_leads_its_generation(events) > 0,
            "{name}: the injected faults must reach promoting generations"
        );
    }
}
