//! Fault-tolerance and checkpoint/resume acceptance tests, exercised
//! through the public `analog-dse` facade exactly as a user would:
//!
//! * a seeded MESACGA run killed mid-Phase-II and resumed (including
//!   across a serialized-text "process restart") reproduces the
//!   uninterrupted run's front bit for bit, with continuous engine
//!   counters;
//! * a fault-injected run whose failures all recover within the retry
//!   budget matches the fault-free front at the same seed, and
//!   `EngineStats` reports the exact injected failure/retry counts;
//! * quarantined candidates never reach the reported front;
//! * an exhausted retry budget under the abort policy surfaces as a
//!   typed `OptimizeError::EvaluationFailed`.

use analog_dse::circuits::{DrivableLoadProblem, Spec};
use analog_dse::engine::{EngineStats, FaultKind, FaultPlan, FaultPolicy};
use analog_dse::moea::problems::Schaffer;
use analog_dse::moea::RunStatus;
use analog_dse::moea::{EngineSetup, OptimizeError};
use analog_dse::sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use analog_dse::sacga::sacga::{Sacga, SacgaConfig};
use analog_dse::sacga::telemetry::Optimizer;
use analog_dse::sacga::{MesacgaCheckpoint, SacgaCheckpoint};
use std::time::Duration;

/// Strips wall-clock timing so stats can be compared across runs.
fn scrub(mut stats: EngineStats) -> EngineStats {
    stats.eval_time = Duration::ZERO;
    stats.backoff_time = Duration::ZERO;
    stats
}

fn mesacga_config() -> MesacgaConfig {
    MesacgaConfig::builder()
        .population_size(40)
        .phase1_max(5)
        .phases(vec![
            PhaseSpec::new(8, 10),
            PhaseSpec::new(4, 10),
            PhaseSpec::new(1, 10),
        ])
        .build()
        .unwrap()
}

#[test]
fn mesacga_killed_mid_phase2_resumes_to_identical_front() {
    let full = Mesacga::new(Schaffer::new(), mesacga_config())
        .run_seeded(42)
        .unwrap();
    let ga = Mesacga::new(Schaffer::new(), mesacga_config());
    // Gen 17 is deep inside Phase II (the annealed expanding phases).
    let cp = match ga.run_until(42, 17).unwrap() {
        RunStatus::Suspended(cp) => cp,
        RunStatus::Complete(_) => panic!("run should suspend at gen 17"),
    };
    assert_eq!(cp.state.gen, 17);
    assert!(cp.state.phase1_done);

    // Round-trip through text, as a real kill/restart would.
    let text = cp.to_text();
    let restored = MesacgaCheckpoint::from_text(&text).unwrap();
    assert_eq!(*cp, restored);

    let resumed = ga.resume(&restored).unwrap();
    assert_eq!(resumed.front_objectives(), full.front_objectives());
    assert_eq!(resumed.history, full.history);
    assert_eq!(resumed.gen_t, full.gen_t);
    assert_eq!(scrub(resumed.stats), scrub(full.stats));
}

#[test]
fn sacga_killed_on_circuit_problem_resumes_to_identical_front() {
    // Same invariant on the analog sizing layer: the checkpoint carries
    // 14-gene op-amp candidates with constraint violations intact.
    let config = SacgaConfig::builder()
        .population_size(24)
        .generations(12)
        .partitions(4)
        .slice_range(
            DrivableLoadProblem::slice_range().0,
            DrivableLoadProblem::slice_range().1,
        )
        .build()
        .unwrap();
    let problem = DrivableLoadProblem::new(Spec::featured());
    let full = Sacga::new(&problem, config.clone()).run_seeded(7).unwrap();

    let ga = Sacga::new(&problem, config);
    let cp = match ga.run_until(7, 6).unwrap() {
        RunStatus::Suspended(cp) => cp,
        RunStatus::Complete(_) => panic!("run should suspend at gen 6"),
    };
    let restored = SacgaCheckpoint::from_text(&cp.to_text()).unwrap();
    let resumed = ga.resume(&restored).unwrap();
    assert_eq!(resumed.front_objectives(), full.front_objectives());
    assert_eq!(resumed.history, full.history);
}

#[test]
fn recovered_faults_leave_the_front_untouched_with_exact_accounting() {
    let base = MesacgaConfig::builder()
        .population_size(40)
        .phase1_max(5)
        .phases(vec![
            PhaseSpec::new(8, 10),
            PhaseSpec::new(4, 10),
            PhaseSpec::new(1, 10),
        ]);
    let clean_cfg = base.clone().build().unwrap();
    let faulty_cfg = base
        .engine_setup(
            EngineSetup::new()
                .fault_policy(FaultPolicy::tolerant(3))
                .inject_faults(FaultPlan::seeded(19).panics(0.04).nonfinite(0.04)),
        )
        .build()
        .unwrap();
    let clean = Mesacga::new(Schaffer::new(), clean_cfg)
        .run_seeded(42)
        .unwrap();
    let faulty = Mesacga::new(Schaffer::new(), faulty_cfg)
        .run_seeded(42)
        .unwrap();

    assert_eq!(clean.front_objectives(), faulty.front_objectives());
    let stats = &faulty.stats;
    assert!(stats.failures > 0, "injection should have fired");
    // Every failure is one of ours, each was retried exactly once, and
    // every candidate recovered — no quarantines.
    assert_eq!(
        stats.failures,
        stats.injected_panics + stats.injected_nonfinite
    );
    assert_eq!(stats.retries, stats.failures);
    assert_eq!(stats.recovered, stats.failures);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(clean.stats.failures, 0);
}

#[test]
fn quarantined_candidates_never_reach_the_front() {
    // Candidates picked by the injector stay non-finite on every attempt
    // and end quarantined; the front must still be entirely finite.
    let cfg = SacgaConfig::builder()
        .population_size(24)
        .generations(10)
        .partitions(4)
        .engine_setup(
            EngineSetup::new()
                .fault_policy(FaultPolicy::tolerant(2))
                .inject_faults(
                    FaultPlan::seeded(3)
                        .nonfinite(0.1)
                        .faults_per_candidate(u32::MAX),
                ),
        )
        .build()
        .unwrap();
    let r = Sacga::new(Schaffer::new(), cfg).run_seeded(13).unwrap();
    assert!(r.stats.quarantined > 0, "injection should have quarantined");
    assert!(!r.front.is_empty());
    for m in &r.front {
        assert!(m.objectives().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn exhausted_retry_budget_aborts_with_typed_error() {
    let cfg = SacgaConfig::builder()
        .population_size(8)
        .generations(2)
        .engine_setup(EngineSetup::new().inject_faults(FaultPlan::seeded(1).panics(1.0)))
        .build()
        .unwrap();
    let err = Sacga::new(Schaffer::new(), cfg).run_seeded(1).unwrap_err();
    match err {
        OptimizeError::EvaluationFailed(f) => assert_eq!(f.kind, FaultKind::Panic),
        other => panic!("expected EvaluationFailed, got {other:?}"),
    }
}

#[test]
fn resume_under_mismatched_config_is_rejected() {
    let ga = Sacga::new(Schaffer::new(), SacgaConfig::builder().build().unwrap());
    let cp = match ga.run_until(5, 3).unwrap() {
        RunStatus::Suspended(cp) => cp,
        RunStatus::Complete(_) => panic!("run should suspend"),
    };
    // Corrupt the checkpoint: point the partition grid at an objective
    // the problem does not have.
    let mut doctored = (*cp).clone();
    doctored.state.grid_objective = 7;
    assert!(matches!(
        ga.resume(&doctored),
        Err(OptimizeError::InvalidCheckpoint { .. })
    ));
}
