//! Integration tests of the optimization service: crash-safe resume,
//! cooperative-preemption determinism across every optimizer loop,
//! exact per-job cache attribution under a shared tenant, watchdog-driven
//! health transitions, and the TCP protocol end to end.
//!
//! The crash-safety golden snapshot lives in `tests/golden/` (re-record
//! with `UPDATE_GOLDEN=1 cargo test -p integration-tests --test server`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use dse_server::protocol::{MAX_CONNECTIONS, MAX_REQUEST_LINE};
use dse_server::spec::{MAX_GENERATIONS, MAX_POPULATION, MAX_ZDT_DIMENSION};
use dse_server::{
    AlgoSpec, JobHealth, JobSpec, JobState, JobStatus, JobStore, ProblemSpec, Server, ServerConfig,
    ServerError,
};

mod common;
use common::check_golden;

/// A scratch directory unique to this test binary's runs.
fn scratch_dir(name: &str) -> PathBuf {
    common::scratch_dir("server-it", name)
}

fn sacga_spec(name: &str) -> JobSpec {
    JobSpec::new(
        name,
        ProblemSpec::Schaffer,
        AlgoSpec::Sacga {
            pop: 16,
            gens: 12,
            parts: 4,
        },
        42,
    )
}

fn mesacga_spec(name: &str) -> JobSpec {
    JobSpec::new(
        name,
        ProblemSpec::Schaffer,
        AlgoSpec::Mesacga { pop: 16, span: 12 },
        42,
    )
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::new()
    }
}

/// Runs `specs` on a fresh uninterrupted server and returns each job's
/// final `outcome.cell` bytes.
fn reference_outcomes(tag: &str, specs: &[JobSpec], workers: usize) -> Vec<Vec<u8>> {
    let root = scratch_dir(tag);
    let server = Server::open(&root, config(workers)).unwrap();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| server.submit(s.clone()).unwrap())
        .collect();
    server.run_until_idle().unwrap();
    let outcomes = ids
        .iter()
        .map(|&id| std::fs::read(server.store().outcome_path(id)).unwrap())
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    outcomes
}

#[test]
fn killed_daemon_resumes_in_flight_jobs_bit_identically() {
    let specs = [
        sacga_spec("crash-a").slice(2),
        mesacga_spec("crash-b").slice(3),
    ];
    let root = scratch_dir("crash");

    // Phase 1: start both jobs, kill the pool after 4 slices.
    let server = Server::open(&root, config(2)).unwrap();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| server.submit(s.clone()).unwrap())
        .collect();
    let drained = server.run_slices_at_most(4).unwrap();
    assert!(!drained, "4 slices must not finish 12+12 generations");
    for &id in &ids {
        let view = server.status(id).unwrap();
        assert!(
            !view.status.is_terminal(),
            "job {id} should be in flight, was {:?}",
            view.status
        );
    }
    drop(server);

    // Phase 2: a new daemon over the same store rescans and resumes.
    let server = Server::open(&root, config(2)).unwrap();
    for &id in &ids {
        assert_eq!(server.status(id).unwrap().status, JobStatus::Queued);
    }
    server.run_until_idle().unwrap();
    let resumed: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| std::fs::read(server.store().outcome_path(id)).unwrap())
        .collect();

    // The resumed fronts must be byte-identical to an uninterrupted run.
    let reference = reference_outcomes("crash-ref", &specs, 1);
    assert_eq!(resumed, reference);

    // And pinned: the SACGA outcome is a committed golden snapshot.
    check_golden(
        "server_sacga_schaffer_seed42.cell",
        std::str::from_utf8(&resumed[0]).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_state_file_is_reenqueued_and_resumed() {
    let spec = sacga_spec("torn").slice(2);
    let root = scratch_dir("torn");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec.clone()).unwrap();
    // Make some progress, then die.
    assert!(!server.run_slices_at_most(2).unwrap());
    drop(server);

    // Simulate a daemon killed mid-write: a state file cut off without
    // its `end` marker.
    let state_path = root.join(format!("job_{id}")).join("state.job");
    std::fs::write(&state_path, "jobstate v1\nstatus runn").unwrap();

    let server = Server::open(&root, config(1)).unwrap();
    let view = server.status(id).unwrap();
    assert_eq!(view.status, JobStatus::Queued, "torn state means in flight");
    server.run_until_idle().unwrap();
    assert_eq!(server.status(id).unwrap().status, JobStatus::Done);

    let resumed = std::fs::read(server.store().outcome_path(id)).unwrap();
    let reference = reference_outcomes("torn-ref", &[spec], 1);
    assert_eq!(vec![resumed], reference);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn preemption_determinism_across_all_loops() {
    // Every arm checkpoints. A job suspended and resumed K times at
    // arbitrary generation boundaries, or killed after any slice and
    // resumed by a fresh daemon, must produce the same outcome as an
    // unpreempted run.
    let arms: Vec<(&str, AlgoSpec, &str)> = vec![
        (
            "sacga",
            AlgoSpec::Sacga {
                pop: 16,
                gens: 10,
                parts: 4,
            },
            "sacga-checkpoint v1",
        ),
        (
            "local",
            AlgoSpec::Local {
                pop: 16,
                gens: 10,
                parts: 4,
            },
            "sacga-checkpoint v1",
        ),
        (
            "mesacga",
            AlgoSpec::Mesacga { pop: 16, span: 12 },
            "mesacga-checkpoint v1",
        ),
        (
            "nsga2",
            AlgoSpec::Nsga2 { pop: 16, gens: 10 },
            "cellular-checkpoint v1",
        ),
        (
            "island",
            AlgoSpec::Island {
                pop: 32,
                gens: 10,
                islands: 2,
            },
            "cellular-checkpoint v1",
        ),
        (
            "cellular",
            AlgoSpec::parse("cellular:pop=32,gens=10,topo=ring,cells=4,interval=4,open=25")
                .unwrap(),
            "cellular-checkpoint v1",
        ),
    ];
    for (label, algo, header) in arms {
        let spec = |slice: usize| {
            JobSpec::new(
                format!("preempt-{label}"),
                ProblemSpec::Schaffer,
                algo.clone(),
                42,
            )
            .slice(slice)
        };
        let mut outcomes = Vec::new();
        for slice in [0usize, 1, 3] {
            let root = scratch_dir(&format!("preempt-{label}-{slice}"));
            let server = Server::open(&root, config(1)).unwrap();
            let id = server.submit(spec(slice)).unwrap();
            server.run_until_idle().unwrap();
            let view = server.status(id).unwrap();
            assert_eq!(view.status, JobStatus::Done, "{label} slice={slice}");
            outcomes.push(std::fs::read(server.store().outcome_path(id)).unwrap());
            let _ = std::fs::remove_dir_all(&root);
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "{label}: slice=1 diverged from unpreempted run"
        );
        assert_eq!(
            outcomes[0], outcomes[2],
            "{label}: slice=3 diverged from unpreempted run"
        );

        // Killed after each of the first three slice boundaries of a
        // slice=3 job, the job leaves its checkpoint on disk, and a
        // restarted daemon resumes it to the unpreempted bytes.
        for boundary in 1..=3 {
            let root = scratch_dir(&format!("preempt-{label}-kill{boundary}"));
            let server = Server::open(&root, config(1)).unwrap();
            let id = server.submit(spec(3)).unwrap();
            assert!(
                !server.run_slices_at_most(boundary).unwrap(),
                "{label}: the job must still run after slice {boundary}"
            );
            assert_eq!(server.status(id).unwrap().generations, 3 * boundary);
            let checkpoint = server.store().read_checkpoint(id).unwrap();
            assert!(
                checkpoint.starts_with(&format!("{header}\n")),
                "{label}: {checkpoint}"
            );
            drop(server);
            let server = Server::open(&root, config(1)).unwrap();
            server.run_until_idle().unwrap();
            assert_eq!(server.status(id).unwrap().status, JobStatus::Done);
            assert_eq!(
                std::fs::read(server.store().outcome_path(id)).unwrap(),
                outcomes[0],
                "{label}: killed after slice {boundary}, resumed to different bytes"
            );
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

#[test]
fn contended_queue_preempts_and_still_matches_reference() {
    // Two sliced jobs on one worker force the requeue path: each job
    // yields at its slice boundary because the other is waiting, so the
    // worker alternates between them.
    let specs = [
        sacga_spec("yield-a").slice(2),
        sacga_spec("yield-b").slice(2),
    ];
    // Different seeds so the jobs are distinct runs.
    let specs = [specs[0].clone(), {
        let mut s = specs[1].clone();
        s.seed = 43;
        s
    }];
    let root = scratch_dir("contended");
    let server = Server::open(&root, config(1)).unwrap();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| server.submit(s.clone()).unwrap())
        .collect();
    server.run_until_idle().unwrap();
    let interleaved: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| std::fs::read(server.store().outcome_path(id)).unwrap())
        .collect();
    let reference = reference_outcomes("contended-ref", &specs, 1);
    assert_eq!(interleaved, reference);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shared_tenant_cache_attribution_is_exact() {
    // Two jobs in one tenant run the identical (problem, algo, seed)
    // configuration: the second is answered almost entirely from the
    // shared cache, yet per-job counters attribute every candidate
    // exactly, and both fronts match an uncached solo run byte for byte.
    let a = sacga_spec("cache-a").tenant("acme");
    let b = sacga_spec("cache-b").tenant("acme");
    let root = scratch_dir("tenant");
    let server = Server::open(&root, config(1)).unwrap();
    let id_a = server.submit(a).unwrap();
    let id_b = server.submit(b).unwrap();
    server.run_until_idle().unwrap();

    let va = server.status(id_a).unwrap();
    let vb = server.status(id_b).unwrap();
    // Exact per-job accounting: every candidate is either evaluated or
    // a cache hit, per job, even though the cache is shared.
    assert_eq!(va.candidates, va.evaluations + va.cache_hits);
    assert_eq!(vb.candidates, vb.evaluations + vb.cache_hits);
    assert_eq!(va.candidates, vb.candidates, "same seed, same stream");
    // The first job filled the cache the second one drained.
    assert!(va.evaluations > 0);
    let total_hits = va.cache_hits + vb.cache_hits;
    assert!(
        total_hits > 0,
        "identical runs in one tenant must share evaluations"
    );
    assert!(
        va.evaluations + vb.evaluations < va.candidates + vb.candidates,
        "the tenant cache absorbed no work"
    );

    // Scheduling must not leak into results: both outcomes equal the
    // uncached reference.
    let reference = reference_outcomes("tenant-ref", &[sacga_spec("solo")], 1);
    let out_a = std::fs::read(server.store().outcome_path(id_a)).unwrap();
    let out_b = std::fs::read(server.store().outcome_path(id_b)).unwrap();
    let strip_name = |bytes: &[u8]| -> Vec<u8> { bytes.to_vec() };
    // outcome.cell stores arm label + seed, not the job name, so the
    // bytes are directly comparable across differently-named jobs.
    assert_eq!(strip_name(&out_a), reference[0]);
    assert_eq!(strip_name(&out_b), reference[0]);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tenant_caches_are_kept_apart_per_problem() {
    // ZDT1 and ZDT2 have the same bounds, so one seed draws the same
    // genes on both; a cache shared across the two problems would answer
    // the ZDT2 job with ZDT1 objectives.
    let zdt = |name: &str, problem: ProblemSpec| {
        JobSpec::new(
            name,
            problem,
            AlgoSpec::Sacga {
                pop: 16,
                gens: 6,
                parts: 4,
            },
            42,
        )
    };
    let root = scratch_dir("tenant-problems");
    let server = Server::open(&root, config(1)).unwrap();
    let first = server
        .submit(zdt("lab-zdt1", ProblemSpec::Zdt1(8)).tenant("lab"))
        .unwrap();
    let second = server
        .submit(zdt("lab-zdt2", ProblemSpec::Zdt2(8)).tenant("lab"))
        .unwrap();
    server.run_until_idle().unwrap();
    assert_eq!(server.status(first).unwrap().status, JobStatus::Done);
    let view = server.status(second).unwrap();
    assert_eq!(view.status, JobStatus::Done);
    assert!(
        view.cache_hits < view.candidates,
        "the ZDT2 job was answered from the ZDT1 job's entries"
    );
    let reference = reference_outcomes(
        "tenant-problems-ref",
        &[zdt("solo-zdt2", ProblemSpec::Zdt2(8))],
        1,
    );
    let out = std::fs::read(server.store().outcome_path(second)).unwrap();
    assert_eq!(out, reference[0], "a tenant cache changed a ZDT2 front");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn health_transitions_healthy_to_stalled_mid_run() {
    // Schaffer converges in a handful of generations; a 5-generation
    // stall window over a 60-generation run must fire long before the
    // end. Suspend the job partway to observe the health endpoint in
    // its live (non-terminal) state.
    let spec = JobSpec::new(
        "stall",
        ProblemSpec::Schaffer,
        AlgoSpec::Sacga {
            pop: 24,
            gens: 60,
            parts: 4,
        },
        42,
    )
    .slice(10)
    .stall_window(5);
    let root = scratch_dir("stall");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec).unwrap();
    assert_eq!(
        server.health(id).unwrap(),
        JobHealth::Healthy,
        "queued jobs start healthy"
    );
    // 4 slices = 40 generations, then a forced suspension.
    assert!(!server.run_slices_at_most(4).unwrap());
    let view = server.status(id).unwrap();
    assert!(!view.status.is_terminal());
    assert_eq!(
        view.health,
        JobHealth::Stalled,
        "plateau must trip the detector"
    );
    // The budget halt simulated a kill, so finish under a fresh daemon:
    // terminal status masks watchdog health at the endpoint, but the
    // persisted state keeps the stall on record.
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    server.run_until_idle().unwrap();
    assert_eq!(server.health(id).unwrap(), JobHealth::Done);
    let state = server.store().read_state(id).unwrap();
    assert_eq!(state.health, JobHealth::Stalled);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn health_transitions_healthy_to_faulty_under_fault_injection() {
    // Inject non-finite evaluations at 20% — far above the 1% alarm
    // threshold — and watch the health endpoint flip to faulty.
    let spec = JobSpec::new(
        "faulty",
        ProblemSpec::Schaffer,
        AlgoSpec::Sacga {
            pop: 16,
            gens: 20,
            parts: 4,
        },
        19,
    )
    .slice(5)
    .fault_alarm(0.01)
    .inject_nonfinite(0.2);
    let root = scratch_dir("faulty");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec).unwrap();
    assert_eq!(server.health(id).unwrap(), JobHealth::Healthy);
    assert!(!server.run_slices_at_most(2).unwrap());
    let view = server.status(id).unwrap();
    assert!(!view.status.is_terminal());
    assert_eq!(view.health, JobHealth::Faulty);
    // Finish under a fresh daemon; the fault record survives the restart.
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    server.run_until_idle().unwrap();
    assert_eq!(server.health(id).unwrap(), JobHealth::Done);
    assert_eq!(
        server.store().read_state(id).unwrap().health,
        JobHealth::Faulty
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Candidate attribution must balance exactly: every candidate a job
/// submits is either evaluated, answered from cache, or screened out.
fn assert_attribution_balances(view: &dse_server::JobView) {
    assert_eq!(
        view.candidates,
        view.evaluations + view.cache_hits + view.screened,
        "attribution must balance for job {}: {view:?}",
        view.name
    );
}

#[test]
fn screened_job_attribution_balances_end_to_end() {
    // A drivable job with the surrogate screen enabled: screened
    // candidates are counted separately from evaluations and the
    // persisted state carries the attribution.
    let spec = JobSpec::new(
        "screened",
        ProblemSpec::Drivable,
        AlgoSpec::Sacga {
            pop: 48,
            gens: 8,
            parts: 4,
        },
        42,
    )
    .screen();
    let root = scratch_dir("screened");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec).unwrap();
    server.run_until_idle().unwrap();
    let view = server.status(id).unwrap();
    assert_eq!(view.status, JobStatus::Done);
    assert!(view.screened > 0, "the screen never fired: {view:?}");
    assert!(
        view.evaluations > 0,
        "the screen must not answer everything"
    );
    assert_attribution_balances(&view);
    // The attribution survives persistence.
    let state = server.store().read_state(id).unwrap();
    assert_eq!(state.screened, view.screened);
    assert_eq!(state.candidates, view.candidates);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn attribution_balances_across_kill_and_resume() {
    // A screened drivable job killed mid-run and resumed by a fresh
    // daemon must report the same balanced attribution as an
    // uninterrupted run: checkpoints carry the engine counters.
    let make_spec = |name: &str| {
        JobSpec::new(
            name,
            ProblemSpec::Drivable,
            AlgoSpec::Sacga {
                pop: 48,
                gens: 8,
                parts: 4,
            },
            42,
        )
        .screen()
        .slice(2)
    };
    let root = scratch_dir("kill-attr");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(make_spec("kill-attr")).unwrap();
    assert!(!server.run_slices_at_most(2).unwrap());
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    server.run_until_idle().unwrap();
    let resumed = server.status(id).unwrap();
    assert_eq!(resumed.status, JobStatus::Done);
    assert_attribution_balances(&resumed);
    let _ = std::fs::remove_dir_all(&root);

    // Uninterrupted reference with the same spec (name-insensitive
    // counters): identical candidate/evaluation/screened totals.
    let root = scratch_dir("kill-attr-ref");
    let server = Server::open(&root, config(1)).unwrap();
    let rid = server.submit(make_spec("kill-attr-ref")).unwrap();
    server.run_until_idle().unwrap();
    let reference = server.status(rid).unwrap();
    assert_attribution_balances(&reference);
    assert_eq!(resumed.candidates, reference.candidates);
    assert_eq!(resumed.evaluations, reference.evaluations);
    assert_eq!(resumed.cache_hits, reference.cache_hits);
    assert_eq!(resumed.screened, reference.screened);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn attribution_balances_under_contended_preemption_slices() {
    // Two sliced jobs alternating on one worker: per-job attribution
    // stays exact through every requeue.
    let a = sacga_spec("attr-a").slice(2).tenant("attr");
    let b = {
        let mut s = sacga_spec("attr-b").slice(3).tenant("attr");
        s.seed = 43;
        s
    };
    let root = scratch_dir("preempt-attr");
    let server = Server::open(&root, config(1)).unwrap();
    let id_a = server.submit(a).unwrap();
    let id_b = server.submit(b).unwrap();
    server.run_until_idle().unwrap();
    for id in [id_a, id_b] {
        let view = server.status(id).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert!(view.candidates > 0);
        assert_attribution_balances(&view);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn duplicate_submission_is_rejected_until_renamed() {
    let root = scratch_dir("dup");
    let server = Server::open(&root, config(1)).unwrap();
    server.submit(sacga_spec("dup")).unwrap();
    assert!(matches!(
        server.submit(sacga_spec("dup")),
        Err(ServerError::DuplicateJob(_))
    ));
    server.submit(sacga_spec("dup2")).unwrap();
    // Duplicates survive restarts: the rescan re-registers known ids.
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    assert!(matches!(
        server.submit(sacga_spec("dup")),
        Err(ServerError::DuplicateJob(_))
    ));
    let _ = std::fs::remove_dir_all(&root);
}

/// ZDT specs whose dimension the problem cannot be built with.
fn undersized_zdt_specs() -> Vec<JobSpec> {
    [
        ProblemSpec::Zdt1(1),
        ProblemSpec::Zdt2(0),
        ProblemSpec::Zdt3(1),
    ]
    .into_iter()
    .map(|problem| {
        JobSpec::new(
            "tiny",
            problem,
            AlgoSpec::Sacga {
                pop: 8,
                gens: 2,
                parts: 2,
            },
            42,
        )
    })
    .collect()
}

/// Specs past a size limit. The first is cheap to run, so a server
/// that accepted it would finish the job instead of losing a worker;
/// the others overflow an allocation.
fn oversized_specs() -> Vec<JobSpec> {
    let small = AlgoSpec::Sacga {
        pop: 8,
        gens: 2,
        parts: 2,
    };
    vec![
        JobSpec::new(
            "big",
            ProblemSpec::Zdt1(MAX_ZDT_DIMENSION + 1),
            small.clone(),
            42,
        ),
        JobSpec::new("big", ProblemSpec::Zdt2(usize::MAX), small, 42),
        JobSpec::new(
            "big",
            ProblemSpec::Schaffer,
            AlgoSpec::Nsga2 {
                pop: 4,
                gens: 1 << 60,
            },
            42,
        ),
        JobSpec::new(
            "big",
            ProblemSpec::Schaffer,
            AlgoSpec::Sacga {
                pop: MAX_POPULATION + 2,
                gens: MAX_GENERATIONS + 1,
                parts: usize::MAX,
            },
            42,
        ),
    ]
}

#[test]
fn zdt_specs_below_two_variables_are_rejected() {
    for spec in undersized_zdt_specs().into_iter().chain(oversized_specs()) {
        let line = spec.canonical();
        assert!(
            matches!(JobSpec::parse(&line), Err(ServerError::InvalidSpec(_))),
            "{line}"
        );
    }
    let root = scratch_dir("zdt-submit");
    let server = Server::open(&root, config(1)).unwrap();
    for spec in undersized_zdt_specs().into_iter().chain(oversized_specs()) {
        let line = spec.canonical();
        assert!(
            matches!(server.submit(spec), Err(ServerError::InvalidSpec(_))),
            "{line}"
        );
    }
    assert!(server.list().is_empty());
    server.run_until_idle().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tcp_submit_of_an_undersized_zdt_job_gets_one_err() {
    let root = scratch_dir("tcp-zdt");
    let server = Server::open(&root, config(1)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let line = format!("submit {}", undersized_zdt_specs()[0].canonical());
    let big_line = format!("submit {}", oversized_specs()[0].canonical());

    // Every exchange is checked after the daemon is joined.
    let (submitted, big, pong) = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve(listener));
        let exchange = |request: &str| -> std::io::Result<String> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            writeln!(stream, "{request}")?;
            stream.shutdown(std::net::Shutdown::Write)?;
            let mut reply = String::new();
            stream.read_to_string(&mut reply)?;
            Ok(reply)
        };
        let submitted = exchange(&line);
        let big = exchange(&big_line);
        let pong = exchange("ping");
        server.request_shutdown();
        daemon.join().unwrap().unwrap();
        (submitted, big, pong)
    });
    for reply in [submitted.unwrap(), big.unwrap()] {
        assert!(reply.starts_with("err "), "{reply:?}");
        assert_eq!(reply.lines().count(), 1, "{reply:?}");
    }
    assert_eq!(pong.unwrap(), "ok pong\n");
    assert!(server.list().is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stored_undersized_zdt_job_is_skipped_on_reopen() {
    // A store that a daemon accepting such specs left behind: the spec and
    // a queued state, written as that daemon wrote them.
    let root = scratch_dir("zdt-store");
    let store = JobStore::open(&root).unwrap();
    let specs = [
        undersized_zdt_specs().remove(0),
        oversized_specs().remove(0),
    ];
    for spec in &specs {
        let id = spec.id();
        std::fs::create_dir_all(store.job_dir(id)).unwrap();
        std::fs::write(
            store.job_dir(id).join("spec.job"),
            format!("{}\n", spec.canonical()),
        )
        .unwrap();
        store.write_state(id, &JobState::queued()).unwrap();
    }

    for _reopen in 0..2 {
        let server = Server::open(&root, config(1)).unwrap();
        server.run_until_idle().unwrap();
        assert!(server.list().is_empty());
        // Left in place for manual inspection.
        for spec in &specs {
            assert!(store.job_dir(spec.id()).join("spec.job").exists());
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_job_that_panics_fails_alone_and_the_drain_returns() {
    // Suspend a job, then give every member of its stored checkpoint one
    // gene more than the problem has: variation indexes the bounds per
    // parent gene, so the resumed slice panics.
    let root = scratch_dir("panic");
    let server = Server::open(&root, config(2)).unwrap();
    let id = server.submit(sacga_spec("panics").slice(2)).unwrap();
    assert!(!server.run_slices_at_most(1).unwrap());
    drop(server);
    let path = JobStore::open(&root).unwrap().checkpoint_path(id);
    let text = std::fs::read_to_string(&path).unwrap();
    let widened: String = text
        .lines()
        .map(|line| {
            let mut tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
            if tokens.first().is_some_and(|t| t == "i") {
                let genes: usize = tokens[3].parse().unwrap();
                tokens[3] = (genes + 1).to_string();
                let gene = tokens[6].clone();
                tokens.insert(6 + genes, gene);
            }
            tokens.join(" ") + "\n"
        })
        .collect();
    assert_ne!(widened, text);
    std::fs::write(&path, widened).unwrap();

    // Drain on a thread, so that a wedged pool fails the test instead
    // of hanging it.
    let server = std::sync::Arc::new(Server::open(&root, config(2)).unwrap());
    let healthy = server.submit(sacga_spec("healthy")).unwrap();
    let (done, drained) = std::sync::mpsc::channel();
    let draining = std::sync::Arc::clone(&server);
    let drain = std::thread::spawn(move || {
        let _ = done.send(draining.run_until_idle());
    });
    drained
        .recv_timeout(Duration::from_secs(60))
        .expect("the drain must return after a job panics")
        .unwrap();
    drain.join().unwrap();
    let failed = server.status(id).unwrap();
    assert_eq!(failed.status, JobStatus::Failed);
    assert!(
        failed
            .error
            .as_deref()
            .is_some_and(|e| e.contains("panicked")),
        "{:?}",
        failed.error
    );
    assert_eq!(server.status(healthy).unwrap().status, JobStatus::Done);
    assert!(server
        .metrics_text()
        .contains("dse_server_jobs_failed_total 1"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tcp_protocol_end_to_end() {
    let root = scratch_dir("tcp");
    let server = Server::open(&root, config(1)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve(listener));

        let send = |line: &str| -> Vec<String> {
            let mut stream = TcpStream::connect(addr).unwrap();
            writeln!(stream, "{line}").unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let mut lines = Vec::new();
            let multi = line.starts_with("list") || line.starts_with("stream");
            for line in reader.lines() {
                let line = line.unwrap();
                let stop = !multi || line.starts_with("end") || line.starts_with("err");
                lines.push(line);
                if stop {
                    break;
                }
            }
            lines
        };

        assert_eq!(send("ping"), vec!["ok pong"]);
        let spec = sacga_spec("tcp").slice(2);
        let resp = send(&format!("submit {}", spec.canonical()));
        let id = resp[0].strip_prefix("ok ").expect(&resp[0]).to_string();

        // Stream the job live: the subscriber follows until `end done`.
        let streamed = send(&format!("stream {id}"));
        assert_eq!(streamed.first().map(String::as_str), Some("ok streaming"));
        assert_eq!(streamed.last().map(String::as_str), Some("end done"));
        let events = streamed.iter().filter(|l| l.starts_with("event ")).count();
        assert!(
            events >= 12,
            "one GenerationEnd per generation, got {events}"
        );

        let status = send(&format!("status {id}"));
        assert!(status[0].contains("status=done"), "{}", status[0]);
        assert!(status[0].contains("generations=12"), "{}", status[0]);

        assert_eq!(send("shutdown"), vec!["ok shutting-down"]);
        daemon.join().unwrap().unwrap();
    });
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_request_line_gets_err_and_a_closed_connection() {
    let root = scratch_dir("tcp-cap");
    let server = Server::open(&root, config(1)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // Both exchanges run before the daemon is stopped and are checked
    // after it is joined, so a failing exchange cannot leave the scope
    // waiting on a daemon nobody shuts down.
    let (hostile, pong) = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve(listener));

        // A client that never sends a newline, one byte past the cap.
        // The read timeout turns a server that keeps buffering into an
        // error instead of a hang.
        let hostile = (|| -> std::io::Result<String> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])?;
            let mut reply = String::new();
            stream.read_to_string(&mut reply)?;
            Ok(reply)
        })();

        // The server keeps serving other connections.
        let pong = (|| -> std::io::Result<String> {
            let mut stream = TcpStream::connect(addr)?;
            writeln!(stream, "ping")?;
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line)?;
            Ok(line)
        })();

        server.request_shutdown();
        daemon.join().unwrap().unwrap();
        (hostile, pong)
    });
    let reply = hostile.expect("the server must answer and close the connection");
    assert!(reply.starts_with("err "), "{reply:?}");
    assert_eq!(reply.lines().count(), 1, "{reply:?}");
    assert_eq!(pong.unwrap(), "ok pong\n");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn connections_over_the_cap_get_err_until_one_closes() {
    let root = scratch_dir("tcp-conn-cap");
    let server = Server::open(&root, config(1)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let ping = |stream: &mut TcpStream| -> std::io::Result<String> {
        writeln!(stream, "ping")?;
        let mut line = String::new();
        BufReader::new(stream.try_clone()?).read_line(&mut line)?;
        Ok(line)
    };

    // Every exchange runs before the daemon is stopped and is checked
    // after it is joined, as in the line-cap test above.
    let (held, refused, retried) = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve(listener));

        // Hold the cap's worth of connections, each confirmed served.
        let mut streams = Vec::new();
        let mut held = Vec::new();
        for _ in 0..MAX_CONNECTIONS {
            let exchange = TcpStream::connect(addr).and_then(|mut stream| {
                stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                let pong = ping(&mut stream)?;
                streams.push(stream);
                Ok(pong)
            });
            held.push(exchange);
        }

        // One more: a single `err` line, then EOF.
        let refused = (|| -> std::io::Result<String> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            let mut reply = String::new();
            stream.read_to_string(&mut reply)?;
            Ok(reply)
        })();

        // Closing one held connection frees its place; the server notices
        // the close within a read timeout, so retry for a bounded time.
        drop(streams.pop());
        let mut retried = Vec::new();
        for _ in 0..50 {
            let reply = TcpStream::connect(addr).and_then(|mut stream| {
                stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                ping(&mut stream)
            });
            let served = matches!(&reply, Ok(line) if line == "ok pong\n");
            retried.push(reply);
            if served {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }

        drop(streams);
        server.request_shutdown();
        daemon.join().unwrap().unwrap();
        (held, refused, retried)
    });
    for (i, pong) in held.into_iter().enumerate() {
        assert_eq!(
            pong.expect("held connection"),
            "ok pong\n",
            "connection {i}"
        );
    }
    let reply = refused.expect("the server must answer and close the connection");
    assert!(reply.starts_with("err "), "{reply:?}");
    assert!(reply.contains("busy"), "{reply:?}");
    assert_eq!(reply.lines().count(), 1, "{reply:?}");
    let last = retried.last().expect("at least one retry");
    assert_eq!(
        last.as_ref().ok().map(String::as_str),
        Some("ok pong\n"),
        "no connection was served after one closed: {retried:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
