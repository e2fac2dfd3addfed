//! The `service` workload: an in-process `dse_server::Server` served over
//! loopback TCP to an open-loop client.
//!
//! One client thread submits jobs over TCP on a fixed schedule (`RATE`
//! jobs/s, independent of how fast the server answers) and watches each
//! outstanding job in process; a second thread probes the server over
//! TCP with `ping`, `status` and `metrics` at `PROBE_HZ`, and checks each
//! finished job's `status` reply. Every time is taken from
//! when the request was *due*, so a stall shows on every request it
//! delays. The server runs one worker per core, and the client uses two
//! threads and two connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dse_server::{JobId, JobSpec, JobStatus, Server, ServerConfig};
use engine::StageNanos;
use sacga::RunEvent;

use crate::calibrate;
use crate::checks::{balance_problems, front_digest, front_problems, Checks};
use crate::trace::{SpanId, SpanLog};

/// Jobs submitted per second. On a 2-core host this keeps the two
/// workers busy about 20% of the time, and about 40% when the shared
/// host runs at half speed: jobs meet in the queue now and then, but a
/// slow host does not tip the server into a growing backlog, which
/// would turn a slowdown into a much larger change in latency (at 6
/// jobs/s a half-speed host left the server no idle time at all).
pub const RATE: f64 = 3.0;
/// Prober requests per second. The server writes each reply in two
/// segments; once requests on a connection come closer than a few tens
/// of ms apart, the second segment waits for the client's delayed ACK
/// and every reply takes ~44 ms, so a faster open-loop schedule would
/// only measure the prober's backlog. That regime is measured
/// separately, by `BACK_TO_BACK` closed-loop pings after the run.
pub const PROBE_HZ: f64 = 10.0;
/// Pings sent back to back, each as soon as the previous reply arrived.
const BACK_TO_BACK: usize = 20;
/// Calibration before and after the open loop.
const BRACKET: Duration = Duration::from_millis(100);
/// Time before the next submit that a calibration pass needs.
const IDLE_PASS_ROOM: Duration = Duration::from_millis(5);
/// Time before the next submit that a set-up needs.
const IDLE_SETUP_ROOM: Duration = Duration::from_millis(40);
/// Set-ups made before the open loop starts, so a run always has some.
const FIRST_SETUPS: usize = 3;
/// Idle calibration passes per idle set-up.
const PASSES_PER_SETUP: usize = 5;
/// How often the submitter looks at outstanding jobs.
const POLL_EVERY: Duration = Duration::from_millis(5);
/// Longest a run waits for its last job after the schedule ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Client socket timeout: a server that stops answering fails the run.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Which jobs the open loop submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The `service` workload's mix (see [`job_line`]).
    Full,
    /// Small jobs only: the server-layer probe that traced runs of the
    /// other workloads make.
    Probe,
}

/// The kinds of the `Full` mix, in the order jobs cycle through them:
///
/// * (a) small drivable-load SACGA jobs under `tenant=lab`;
/// * (b) the previous cycle's (a) resubmitted under a new name: same
///   seed, so its candidates are reads of the tenant's shared cache;
/// * (c) ZDT1 cellular jobs, preempted every 10 generations
///   (`slice=10`) whenever another job is waiting;
/// * (d) high-priority (`priority=1`) Schaffer NSGA-II jobs.
///
/// (c) and (d) cost about the same and make up three quarters of the
/// jobs, so the median job is one of them rather than the boundary
/// between two kinds of different cost.
const CYCLE: &[u8; 8] = b"abcdcdcd";

/// The kind (a letter of [`CYCLE`]) of the `index`-th job of `mix`.
fn kind(mix: Mix, index: usize) -> u8 {
    match mix {
        Mix::Full => CYCLE[index % CYCLE.len()],
        Mix::Probe => b'p',
    }
}

/// The (a) job that (b) job `index` resubmits: the one of the previous
/// cycle, which has finished by then, so most of its reads hit.
fn resubmitted(index: usize) -> usize {
    index.checked_sub(CYCLE.len() + 1).unwrap_or(index - 1)
}

/// The `index`-th job of a run, as a canonical `job v1` line.
pub fn job_line(mix: Mix, seed: u64, index: usize) -> String {
    let job_seed = |i: usize| crate::sub_seed(seed, i as u64) % 1_000_000_007;
    let kind = kind(mix, index);
    let (tenant, problem, algo, seed, priority, slice) = match kind {
        b'p' => (
            "none",
            "schaffer",
            "nsga2:pop=16,gens=10",
            job_seed(index),
            0,
            0,
        ),
        b'a' | b'b' => {
            let source = if kind == b'a' {
                index
            } else {
                resubmitted(index)
            };
            (
                "lab",
                "drivable",
                "sacga:pop=40,gens=12,parts=4",
                job_seed(source),
                0,
                0,
            )
        }
        b'c' => (
            "none",
            "zdt1:30",
            "cellular:pop=100,gens=225,topo=ring,cells=8,radius=1,interval=10,migrants=1,\
             open=0,aniso=50",
            job_seed(index),
            0,
            10,
        ),
        _ => (
            "none",
            "schaffer",
            "nsga2:pop=100,gens=200",
            job_seed(index),
            1,
            0,
        ),
    };
    let name = format!("{}{index}", kind as char);
    format!(
        "job v1 name={name} tenant={tenant} problem={problem} algo={algo} seed={seed} \
         priority={priority} slice={slice} stall=0 fault=none inject=0 screen=0"
    )
}

/// The line of the known-answer job.
pub fn kat_line(seed: u64) -> String {
    format!(
        "job v1 name=kat tenant=none problem=drivable algo=sacga:pop=40,gens=24,parts=4 \
         seed={seed} priority=0 slice=0 stall=0 fault=none inject=0 screen=0"
    )
}

/// One request/response connection speaking the server's line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads its reply: one line, or for
    /// `metrics`/`debug` everything up to the closing `end` line.
    fn request(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send {line:?}: {e}"))?;
        let multi = line == "metrics" || line.starts_with("debug ");
        let mut out = Vec::new();
        loop {
            let mut buf = String::new();
            match self.reader.read_line(&mut buf) {
                Ok(0) => return Err(format!("connection closed during {line:?}")),
                Ok(_) => {}
                Err(e) => return Err(format!("reply to {line:?}: {e}")),
            }
            let reply = buf.trim_end().to_string();
            let first = out.is_empty();
            if first && reply.starts_with("err ") {
                return Err(format!("{line:?} -> {reply}"));
            }
            let done = !multi || (!first && reply == "end");
            out.push(reply);
            if done {
                return Ok(out);
            }
        }
    }
}

/// A `status` reply's `key=value` fields.
fn status_field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn status_u64(reply: &str, key: &str) -> u64 {
    status_field(reply, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One submitted job, tracked until it finishes.
#[derive(Debug)]
struct Job {
    index: usize,
    id: JobId,
    name: String,
    due: Instant,
    acked: Instant,
    started: Option<Instant>,
    /// Index of the job whose results this one must reproduce.
    source: Option<usize>,
}

/// Everything one open-loop run measured.
#[derive(Debug, Default)]
pub struct ServiceRun {
    /// Set-up time of each server opened over the history store, in
    /// seconds.
    pub setup_s: Vec<f64>,
    /// The same at the reference host speed (see
    /// `calibrate::text_pass_ms`).
    pub setup_ref_s: Vec<f64>,
    /// Scheduled submit to `done`, per job, in seconds.
    pub job_latency_s: Vec<f64>,
    /// The same at the reference host speed, each job scaled by the
    /// calibration passes run while the server was idle around it.
    pub job_latency_ref_s: Vec<f64>,
    /// Submit acknowledged to first seen running, per job, in seconds.
    pub queue_wait_s: Vec<f64>,
    /// How late the submitter sent each job, in ms.
    pub submit_lag_ms: Vec<f64>,
    /// How late the prober sent each request, in ms.
    pub probe_lag_ms: Vec<f64>,
    /// Prober latency from due time, per request, in ms.
    pub probe_ms: Vec<f64>,
    /// Latency per verb (send time to reply), in ms.
    pub verb_ms: Vec<(&'static str, f64)>,
    /// Server workers, and how long the open loop ran, in seconds.
    pub workers: usize,
    pub window_s: f64,
    /// The final scrape of the server's metrics.
    pub scrape: String,
    /// Stage time and generation-end events of every job (traced runs).
    pub stages: StageNanos,
    pub generation_ends: Vec<RunEvent>,
    /// Canonical lines of every job submitted.
    pub lines: Vec<String>,
    pub checks: Checks,
}

/// What a run is asked to do.
pub struct Plan<'a> {
    pub mix: Mix,
    pub seed: u64,
    pub seconds: f64,
    /// Fetch each finished job's `debug` report (stage times, events).
    pub traced: bool,
    /// Seed and expected front digest of the known-answer job.
    pub kat: Option<(u64, u64)>,
    pub log: Option<(&'a SpanLog, SpanId)>,
    /// Directory for the job stores; removed afterwards.
    pub scratch: &'a Path,
}

/// Server workers: one per core.
fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The store of finished jobs that every measured set-up opens.
fn history_dir(scratch: &Path) -> PathBuf {
    scratch.join("history")
}

pub fn run(plan: &Plan<'_>) -> Result<ServiceRun, String> {
    let workers = host_workers();
    let mut out = ServiceRun {
        workers,
        ..ServiceRun::default()
    };
    let history = history_dir(plan.scratch);
    let live = plan.scratch.join("store");
    let result = fill_store(&history, workers, plan.seed).and_then(|()| {
        let (server, listener, conn, _) = open(&live, workers)?;
        serve(&server, listener, conn, |server, addr| {
            open_loop(plan, server, addr, &mut out)
        })
    });
    let _ = std::fs::remove_dir_all(&history);
    let _ = std::fs::remove_dir_all(&live);
    result.map(|()| out)
}

/// Finished jobs in the store every measured server opens.
const STORED_JOBS: usize = 16;

/// The `index`-th job of the store's history: 60 generations, so
/// reopening the store replays a few thousand event lines.
fn stored_line(seed: u64, index: usize) -> String {
    format!(
        "job v1 name=s{index} tenant=none problem=schaffer algo=nsga2:pop=16,gens=60 seed={} \
         priority=0 slice=0 stall=0 fault=none inject=0 screen=0",
        crate::sub_seed(seed ^ 0x5eed, index as u64) % 1_000_000_007
    )
}

/// Runs `STORED_JOBS` small jobs to completion in a store at `dir`, so
/// that opening it is a daemon restart over a store with history.
fn fill_store(dir: &Path, workers: usize, seed: u64) -> Result<(), String> {
    let server = Server::open(
        dir,
        ServerConfig {
            workers,
            ..ServerConfig::new()
        },
    )
    .map_err(|e| format!("open server: {e}"))?;
    for i in 0..STORED_JOBS {
        let spec =
            JobSpec::parse(&stored_line(seed, i)).map_err(|e| format!("stored job spec: {e}"))?;
        server
            .submit(spec)
            .map_err(|e| format!("stored job: {e}"))?;
    }
    server
        .run_until_idle()
        .map_err(|e| format!("stored jobs: {e}"))
}

/// Opens the server over the store at `dir` — rescanning every job
/// persisted there — binds a loopback port and connects a client to it;
/// returns them with the time this took, the service's set-up time.
/// Starting the serving threads is left out of it: how fast an idle core
/// of a shared host wakes up to run a new thread varies far more from
/// run to run than anything the server does.
fn open(dir: &Path, workers: usize) -> Result<(Server, TcpListener, Conn, Duration), String> {
    let start = Instant::now();
    let server = Server::open(
        dir,
        ServerConfig {
            workers,
            ..ServerConfig::new()
        },
    )
    .map_err(|e| format!("open server: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    // Connect before the accept loop starts, so the first accept finds
    // it waiting instead of after the loop's idle sleep.
    let conn = Conn::connect(addr)?;
    Ok((server, listener, conn, start.elapsed()))
}

/// Runs calibration passes for `BRACKET` and records each with its time.
/// A run makes them before and after its open loop, so it has passes to
/// scale by however little the server was idle.
fn bracket_passes(passes: &mut Vec<(Instant, f64)>) {
    let start = Instant::now();
    while start.elapsed() < BRACKET {
        passes.push((Instant::now(), calibrate::pass_ms()));
    }
}

/// One set-up over the history store, in seconds, unscaled and scaled
/// by the text passes (see `calibrate::text_pass_ms`) just before and
/// after it. The server it opened is dropped unused.
fn setup_sample(history: &Path) -> Result<(f64, f64), String> {
    let before = calibrate::text_pass_ms();
    let (_, _, _, took) = open(history, host_workers())?;
    let after = calibrate::text_pass_ms();
    let took = took.as_secs_f64();
    Ok((took, took * calibrate::text_factor(before, after)))
}

/// Serves `listener` and runs `f` once the first request has been
/// answered; the connection that sent it is closed first, so `f`'s own
/// connections are the only ones open. The server is shut down and every
/// thread joined before this returns.
fn serve<R>(
    server: &Server,
    listener: TcpListener,
    mut conn: Conn,
    f: impl FnOnce(&Server, SocketAddr) -> Result<R, String>,
) -> Result<R, String> {
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(listener));
        let pinged = conn.request("ping");
        drop(conn);
        let result = pinged.and_then(|_| f(server, addr));
        server.request_shutdown();
        let served = serving
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| format!("serve: {e}"))?;
        result
    })
}

fn open_loop(
    plan: &Plan<'_>,
    server: &Server,
    addr: SocketAddr,
    out: &mut ServiceRun,
) -> Result<(), String> {
    let jobs = ((plan.seconds * RATE).round() as usize).max(1);
    let lines: Vec<String> = (0..jobs)
        .map(|i| job_line(plan.mix, plan.seed, i))
        .collect();
    let shared = Shared {
        finished: AtomicBool::new(false),
        latest: Mutex::new(None),
        to_verify: Mutex::new(VecDeque::new()),
    };
    let mut submit_conn = Conn::connect(addr)?;
    let mut probe_conn = Conn::connect(addr)?;
    let mut setups = (0..FIRST_SETUPS)
        .map(|_| setup_sample(&history_dir(plan.scratch)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut passes = Vec::new();
    bracket_passes(&mut passes);
    let start = Instant::now();
    let (submitted, probed) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| probe(&mut probe_conn, start, &shared, plan.log));
        let submitted = submit_and_watch(plan, server, &mut submit_conn, &lines, start, &shared);
        shared.finished.store(true, Ordering::SeqCst);
        (submitted, prober.join())
    });
    out.window_s = start.elapsed().as_secs_f64();
    let probed = probed.map_err(|_| "prober thread panicked".to_string())?;
    out.probe_ms = probed.latency_ms;
    out.probe_lag_ms = probed.lag_ms;
    out.verb_ms.extend(probed.verb_ms);
    out.checks.attempted += out.probe_ms.len() as u64;
    for failure in probed.failures {
        out.checks.record("probe", vec![failure]);
    }
    let watched = submitted?;
    let mut kinds = watched.kinds.clone();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let lat: Vec<f64> = watched
            .latency_s
            .iter()
            .zip(&watched.kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(l, _)| l * 1e3)
            .collect();
        eprintln!(
            "jobs {}: n={} latency p50 {:.1} ms, max {:.1} ms",
            kind as char,
            lat.len(),
            crate::stats::median(&lat),
            crate::stats::quantile(&lat, 1.0)
        );
    }
    eprintln!(
        "{} calibration passes while the server was idle",
        watched.idle_passes.len()
    );
    passes.extend(&watched.idle_passes);
    bracket_passes(&mut passes);
    out.job_latency_ref_s = watched
        .windows
        .iter()
        .zip(&watched.latency_s)
        .map(|(&(due, done), l)| l * calibrate::local_factor(&passes, due, done))
        .collect();
    setups.extend(&watched.setups);
    (out.setup_s, out.setup_ref_s) = setups.into_iter().unzip();
    out.job_latency_s = watched.latency_s;
    out.queue_wait_s = watched.queue_wait_s;
    out.submit_lag_ms = watched.lag_ms;
    out.verb_ms.extend(watched.verb_ms);
    out.stages = watched.stages;
    out.generation_ends = watched.generation_ends;
    out.checks.attempted += watched.checks.attempted;
    out.checks.failed += watched.checks.failed;
    out.checks.errors.extend(watched.checks.errors);
    // Jobs the prober did not get to are verified now.
    let rest: Vec<Verify> = shared
        .to_verify
        .lock()
        .expect("verify queue poisoned")
        .drain(..)
        .collect();
    for job in rest {
        let problems = match probe_conn.request(&format!("status {}", job.id)) {
            Ok(reply) => verify_status(&reply[0], &job),
            Err(e) => vec![e],
        };
        out.checks
            .record(&format!("job {} status", job.name), problems);
    }
    for _ in 0..BACK_TO_BACK {
        let sent = Instant::now();
        probe_conn.request("ping")?;
        out.verb_ms.push(("ping_back_to_back", ms(sent.elapsed())));
    }
    out.lines = lines;
    out.scrape = submit_conn.request("metrics")?[1..].join("\n");
    if let Some((seed, expected)) = plan.kat {
        let problems = match run_kat(server, &mut submit_conn, seed) {
            Ok(digest) if digest == expected => Vec::new(),
            Ok(digest) => vec![format!(
                "known-answer job front digest {digest:016x}, expected {expected:016x}"
            )],
            Err(e) => vec![e],
        };
        out.checks.record("known-answer job", problems);
    }
    Ok(())
}

/// Submits the known-answer job and returns its front digest.
fn run_kat(server: &Server, conn: &mut Conn, seed: u64) -> Result<u64, String> {
    let reply = conn.request(&format!("submit {}", kat_line(seed)))?;
    let id = JobId::parse(reply[0].trim_start_matches("ok ")).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + DRAIN_LIMIT;
    while Instant::now() < deadline {
        let view = server.status(id).map_err(|e| e.to_string())?;
        match view.status {
            JobStatus::Done => {
                let outcome = server
                    .store()
                    .read_outcome(id)
                    .ok_or("known-answer job has no outcome")?;
                return Ok(front_digest([outcome.front_objectives().as_slice()]));
            }
            JobStatus::Failed | JobStatus::Cancelled => {
                return Err(format!("known-answer job ended {}", view.status.token()))
            }
            _ => std::thread::sleep(POLL_EVERY),
        }
    }
    Err("known-answer job did not finish".into())
}

/// A finished job whose `status` reply over TCP is still to be checked.
#[derive(Debug)]
struct Verify {
    id: JobId,
    name: String,
}

/// State the two client threads share.
struct Shared {
    finished: AtomicBool,
    latest: Mutex<Option<JobId>>,
    to_verify: Mutex<VecDeque<Verify>>,
}

/// Problems with a finished job's `status` reply: it must be `done`,
/// echo the job's id and name, and account for every candidate.
fn verify_status(reply: &str, job: &Verify) -> Vec<String> {
    let mut problems = Vec::new();
    if status_field(reply, "status") != Some("done") {
        problems.push(format!("not done: {reply}"));
    }
    let id = job.id.to_string();
    if status_field(reply, "id") != Some(id.as_str())
        || status_field(reply, "name") != Some(job.name.as_str())
    {
        problems.push(format!(
            "status reply does not echo id {id} / name {}",
            job.name
        ));
    }
    let [c, e, h, s] =
        ["candidates", "evaluations", "cache_hits", "screened"].map(|k| status_u64(reply, k));
    problems.extend(balance_problems(c, e, h, s));
    problems
}

#[derive(Debug, Default)]
struct Probed {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    verb_ms: Vec<(&'static str, f64)>,
    failures: Vec<String>,
}

/// Sends `ping`, `status` and `metrics` in turn, one request every
/// 1/`PROBE_HZ` s, until the submitter is done. `status` asks about the
/// next finished job still to be verified, else the latest submitted.
fn probe(
    conn: &mut Conn,
    start: Instant,
    shared: &Shared,
    log: Option<(&SpanLog, SpanId)>,
) -> Probed {
    let mut out = Probed::default();
    for k in 0u64.. {
        let due = start + Duration::from_secs_f64(k as f64 / PROBE_HZ);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if shared.finished.load(Ordering::SeqCst) {
            break;
        }
        let verify = if k % 3 == 1 {
            shared
                .to_verify
                .lock()
                .expect("verify queue poisoned")
                .pop_front()
        } else {
            None
        };
        let latest = *shared.latest.lock().expect("latest job poisoned");
        let (verb, line) = match (k % 3, &verify, latest) {
            (1, Some(job), _) => ("status", format!("status {}", job.id)),
            (1, None, Some(id)) => ("status", format!("status {id}")),
            (2, _, _) => ("metrics", "metrics".to_string()),
            _ => ("ping", "ping".to_string()),
        };
        let sent = Instant::now();
        out.lag_ms.push(ms(sent - due));
        match conn.request(&line) {
            Ok(reply) => {
                let done = Instant::now();
                out.latency_ms.push(ms(done - due));
                out.verb_ms.push((verb, ms(done - sent)));
                if let Some((log, parent)) = log {
                    log.record(verb, parent, due, done);
                }
                if let Some(job) = verify {
                    let problems = verify_status(&reply[0], &job);
                    if !problems.is_empty() {
                        out.failures.extend(
                            problems
                                .into_iter()
                                .map(|p| format!("job {}: {p}", job.name)),
                        );
                    }
                }
            }
            // A failed request has no latency: it counts as failed.
            Err(e) => out.failures.push(e),
        }
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(Debug, Default)]
struct Watched {
    /// When each calibration pass ran, and its time in ms.
    idle_passes: Vec<(Instant, f64)>,
    /// Set-ups made while the server was idle (see [`setup_sample`]).
    setups: Vec<(f64, f64)>,
    latency_s: Vec<f64>,
    /// Scheduled submit and `done` of each job, beside `latency_s`.
    windows: Vec<(Instant, Instant)>,
    /// First letter of each finished job's name: its kind.
    kinds: Vec<u8>,
    queue_wait_s: Vec<f64>,
    lag_ms: Vec<f64>,
    verb_ms: Vec<(&'static str, f64)>,
    stages: StageNanos,
    generation_ends: Vec<RunEvent>,
    checks: Checks,
}

/// Submits every job over TCP at its scheduled time and watches the
/// outstanding ones in process until each is finished, checking every
/// job's results. Watching in process keeps the completion time exact
/// to `POLL_EVERY` whatever the protocol's own latency.
fn submit_and_watch(
    plan: &Plan<'_>,
    server: &Server,
    conn: &mut Conn,
    lines: &[String],
    start: Instant,
    shared: &Shared,
) -> Result<Watched, String> {
    let mut out = Watched::default();
    let mut outstanding: Vec<Job> = Vec::new();
    let mut digests: Vec<Option<u64>> = vec![None; lines.len()];
    let mut replays: Vec<(usize, usize, u64)> = Vec::new();
    let mut next = 0;
    let mut drain_deadline = None;
    loop {
        let due = start + Duration::from_secs_f64(next as f64 / RATE);
        if next < lines.len() && Instant::now() >= due {
            let job = submit(conn, &lines[next], next, due, plan.mix, &mut out)?;
            *shared.latest.lock().expect("latest job poisoned") = Some(job.id);
            outstanding.push(job);
            next += 1;
            continue;
        }
        if next == lines.len() {
            if outstanding.is_empty() {
                break;
            }
            if Instant::now() > *drain_deadline.get_or_insert(Instant::now() + DRAIN_LIMIT) {
                return Err(format!(
                    "{} jobs unfinished {DRAIN_LIMIT:?} after the last submit",
                    outstanding.len()
                ));
            }
        }
        watch(
            plan,
            server,
            &mut outstanding,
            &mut digests,
            &mut replays,
            shared,
            &mut out,
        )?;
        // While the server is idle, sample the host's speed (see
        // `calibrate`) and the set-up time without competing with any
        // job; one set-up per `PASSES_PER_SETUP` passes keeps the
        // set-ups a small share of the idle time.
        let room = due.saturating_duration_since(Instant::now());
        if outstanding.is_empty() && next < lines.len() {
            if room > IDLE_SETUP_ROOM && out.setups.len() * PASSES_PER_SETUP < out.idle_passes.len()
            {
                out.setups.push(setup_sample(&history_dir(plan.scratch))?);
            } else if room > IDLE_PASS_ROOM {
                out.idle_passes.push((Instant::now(), calibrate::pass_ms()));
            }
        }
        let mut wake = Instant::now() + POLL_EVERY;
        if next < lines.len() {
            wake = wake.min(due);
        }
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    // A resubmitted job must reproduce its source exactly, shared cache
    // or not.
    for (index, source, digest) in replays {
        let problems = match digests[source] {
            Some(d) if d == digest => Vec::new(),
            other => vec![format!(
                "front digest {digest:016x} differs from job {source}'s {other:x?}"
            )],
        };
        out.checks.record(&format!("job {index} replay"), problems);
    }
    Ok(out)
}

fn submit(
    conn: &mut Conn,
    line: &str,
    index: usize,
    due: Instant,
    mix: Mix,
    out: &mut Watched,
) -> Result<Job, String> {
    let sent = Instant::now();
    out.lag_ms.push(ms(sent - due));
    let spec = JobSpec::parse(line).map_err(|e| format!("job {index} spec: {e}"))?;
    let reply = conn.request(&format!("submit {line}"))?;
    let acked = Instant::now();
    out.verb_ms.push(("submit", ms(acked - sent)));
    let id = reply[0].trim_start_matches("ok ");
    if id != spec.id().to_string() {
        return Err(format!(
            "job {index}: server id {id} != spec id {}",
            spec.id()
        ));
    }
    let source = (kind(mix, index) == b'b').then(|| resubmitted(index));
    Ok(Job {
        index,
        id: spec.id(),
        name: spec.name,
        due,
        acked,
        started: None,
        source,
    })
}

/// One pass over the outstanding jobs.
fn watch(
    plan: &Plan<'_>,
    server: &Server,
    outstanding: &mut Vec<Job>,
    digests: &mut [Option<u64>],
    replays: &mut Vec<(usize, usize, u64)>,
    shared: &Shared,
    out: &mut Watched,
) -> Result<(), String> {
    let mut i = 0;
    while i < outstanding.len() {
        let view = server
            .status(outstanding[i].id)
            .map_err(|e| format!("status of {}: {e}", outstanding[i].name))?;
        let seen = Instant::now();
        let job = &mut outstanding[i];
        if view.status != JobStatus::Queued && job.started.is_none() {
            job.started = Some(seen);
        }
        if !view.status.is_terminal() {
            i += 1;
            continue;
        }
        let job = outstanding.swap_remove(i);
        out.latency_s.push((seen - job.due).as_secs_f64());
        out.windows.push((job.due, seen));
        out.kinds.push(job.name.as_bytes()[0]);
        out.queue_wait_s
            .push((job.started.unwrap_or(seen) - job.acked).as_secs_f64());
        if let Some((log, parent)) = plan.log {
            log.record("job", parent, job.due, seen);
        }
        let mut problems = Vec::new();
        if view.status != JobStatus::Done {
            problems.push(format!("ended {}: {:?}", view.status.token(), view.error));
        }
        match server.store().read_outcome(job.id) {
            Some(outcome) => {
                let front = outcome.front_objectives();
                problems.extend(front_problems(&front));
                let digest = front_digest([front.as_slice()]);
                digests[job.index] = Some(digest);
                if let Some(source) = job.source {
                    replays.push((job.index, source, digest));
                }
            }
            None => problems.push("no persisted outcome".into()),
        }
        if plan.traced {
            let report = server.debug_report(job.id).map_err(|e| e.to_string())?;
            out.stages.merge(&report.stages);
            out.generation_ends.extend(
                report
                    .lines
                    .iter()
                    .filter_map(|l| RunEvent::from_json(l).ok())
                    .filter(|e| matches!(e, RunEvent::GenerationEnd { .. })),
            );
        }
        out.checks
            .record(&format!("job {} ({})", job.index, job.name), problems);
        shared
            .to_verify
            .lock()
            .expect("verify queue poisoned")
            .push_back(Verify {
                id: job.id,
                name: job.name,
            });
    }
    Ok(())
}

/// A scratch directory for job stores, unique to this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_line_is_a_valid_canonical_spec() {
        for mix in [Mix::Full, Mix::Probe] {
            for i in 0..16 {
                let line = job_line(mix, 7, i);
                let spec = JobSpec::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(spec.canonical(), line);
            }
        }
        assert_eq!(
            JobSpec::parse(&kat_line(3)).unwrap().canonical(),
            kat_line(3)
        );
        assert_eq!(
            JobSpec::parse(&stored_line(3, 1)).unwrap().canonical(),
            stored_line(3, 1)
        );
    }

    #[test]
    fn resubmissions_repeat_their_source_seed() {
        let seed_of = |i| {
            let line = job_line(Mix::Full, 11, i);
            JobSpec::parse(&line).unwrap().seed
        };
        assert_eq!(seed_of(1), seed_of(0));
        assert_eq!(seed_of(9), seed_of(0));
        assert_eq!(seed_of(17), seed_of(8));
        assert_ne!(seed_of(8), seed_of(0));
        assert!(job_line(Mix::Full, 11, 9).contains("name=b9 "));
    }

    #[test]
    fn status_fields_parse() {
        let reply = "ok id=00ff name=a0 status=done candidates=12 evaluations=10 cache_hits=2";
        assert_eq!(status_field(reply, "status"), Some("done"));
        assert_eq!(status_u64(reply, "cache_hits"), 2);
        assert_eq!(status_field(reply, "missing"), None);
    }
}
