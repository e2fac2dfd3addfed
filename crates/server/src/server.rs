//! The in-process optimization service: a bounded priority queue of
//! [`JobSpec`]s executed by a worker pool (built on [`engine::pool`])
//! through the object-safe [`DynOptimizer`](sacga::telemetry::DynOptimizer) API, with shared
//! evaluation caches per tenant and problem, crash-safe persistence ([`JobStore`]), streaming
//! progress ([`ProgressHub`]) and per-job watchdog health.
//!
//! # Execution model
//!
//! A worker pops the highest-priority job and runs it in *slices* of
//! `spec.slice` generations. At each slice boundary the job's
//! checkpoint and state are persisted atomically; if other jobs are
//! waiting the job re-enters the queue (cooperative preemption),
//! otherwise it continues inline. Every arm checkpoints, so every job
//! can be preempted at a slice boundary and resumed after a crash.
//!
//! # Event streams
//!
//! A job's `events.jsonl` is the only lasting copy of its event stream.
//! Each event is encoded once, and the file, the job's [`ProgressHub`]
//! and the `debug` tail share that line. The hub holds lines only while
//! the job can still run; when the job ends, after its JSONL sink is
//! flushed, the hub releases them, and [`Server::poll_progress`],
//! `stream` and [`Server::debug_report`] read the finished history from
//! `events.jsonl` in one pass per request.
//!
//! # Crash safety
//!
//! [`Server::open`] rescans the store: terminal jobs are registered
//! without reading their streams; anything else — including a job whose
//! `state.job` is torn because the previous daemon died mid-write — is
//! re-enqueued. The event stream is trimmed back to the persisted
//! checkpoint's generation so a resumed run appends exactly the events
//! the killed run would have produced, and the final front is
//! bit-identical to an uninterrupted run of the same spec.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::BufWriter;
use std::net::TcpListener;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::error::ServerError;
use crate::hub::{HubPoll, ProgressHub, HUB_BYTES, HUB_CAPACITY};
use crate::protocol::MAX_CONNECTIONS;
use crate::queue::{JobQueue, PopMode};
use crate::spec::{JobId, JobSpec, ProblemSpec};
use crate::store::{partial_path, JobHealth, JobState, JobStatus, JobStore};
use campaign::CellResult;
use engine::{
    CacheConfig, Counter, EngineMetrics, Gauge, Histogram, MetricsRegistry, SharedCache, StageNanos,
};
use moea::{Evaluation, RunOutcome};
use sacga::telemetry::{
    DynRunStatus, EventKind, FaultRateAlarm, JsonlSink, RegistrySink, Sink, StallDetector,
};
use sacga::RunEvent;

/// Reference point used for the stall detector's hypervolume when a job
/// enables `stall=`; generous enough to dominate every benchmark front
/// in this workspace. The detector is the only code that computes a
/// job's hypervolume.
const STALL_REF: f64 = 1e3;

/// Event lines `debug` returns: the newest of the job's stream, taken
/// from its hub while the job can run and from `events.jsonl` once it
/// has finished.
pub const FLIGHT_CAPACITY: usize = 256;

/// Tuning of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs accepted from clients.
    pub queue_capacity: usize,
    /// Template for the shared evaluation caches, one per tenant and
    /// problem.
    pub cache: CacheConfig,
}

impl ServerConfig {
    /// Defaults: 2 workers, 64 queued jobs, 64Ki-entry tenant caches.
    pub fn new() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            cache: CacheConfig::with_capacity(1 << 16),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time snapshot of one job, as reported by status/list.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// Job identifier.
    pub id: JobId,
    /// Human-chosen name from the spec.
    pub name: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Endpoint health (terminal statuses mask watchdog health).
    pub health: JobHealth,
    /// Generations completed.
    pub generations: usize,
    /// Candidates submitted by this job (exact per-job attribution,
    /// also under a shared tenant cache).
    pub candidates: u64,
    /// Evaluations this job paid for.
    pub evaluations: u64,
    /// Candidates answered from the cache for this job.
    pub cache_hits: u64,
    /// Candidates rejected by the job's surrogate screen, never passed
    /// to the full model (`candidates = evaluations + cache_hits +
    /// screened`).
    pub screened: u64,
    /// Error message for failed jobs.
    pub error: Option<String>,
}

/// Process-level service metrics, registered once per server in the
/// shared registry. They carry no label; the engine and run series of
/// `run_one` carry `tenant` and `arm` only, so the scrape holds one set
/// of series per tenant and arm however many jobs the server has run.
/// A job's own facts are read from `status`, `debug` and its
/// `events.jsonl`.
struct ServerMetrics {
    jobs_submitted: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    preemptions: Counter,
    slices: Histogram,
    queue_depth: Gauge,
    jobs_running: Gauge,
    hub_retained_bytes: Gauge,
    hub_dropped_lines: Gauge,
}

impl ServerMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        ServerMetrics {
            jobs_submitted: registry.counter("dse_server_jobs_submitted_total", &[]),
            jobs_completed: registry.counter("dse_server_jobs_completed_total", &[]),
            jobs_failed: registry.counter("dse_server_jobs_failed_total", &[]),
            preemptions: registry.counter("dse_server_preemptions_total", &[]),
            slices: registry.histogram(
                "dse_server_slice_seconds",
                &[],
                &engine::metrics::latency_buckets(),
            ),
            queue_depth: registry.gauge("dse_server_queue_depth", &[]),
            jobs_running: registry.gauge("dse_server_jobs_running", &[]),
            hub_retained_bytes: registry.gauge("dse_hub_retained_bytes", &[]),
            hub_dropped_lines: registry.gauge("dse_hub_dropped_lines", &[]),
        }
    }
}

/// Decrements a count however its scope exits: the running jobs, or the
/// open client connections.
struct CountGuard<'a>(&'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One job's flight recorder: cumulative per-stage nanoseconds over the
/// `StageTiming` events its runs recorded in this process, served by the
/// `debug` endpoint beside the newest lines of the job's stream.
#[derive(Debug, Default)]
struct FlightRecorder {
    stages: StageNanos,
    timed_generations: u64,
}

impl FlightRecorder {
    fn record(&mut self, event: &RunEvent) {
        if let RunEvent::StageTiming { stages, .. } = event {
            self.stages.merge(stages);
            self.timed_generations += 1;
        }
    }
}

/// A point-in-time copy of one job's flight recorder and the newest
/// lines of its stream, as served by the `debug` protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightReport {
    /// The newest lines of the job's stream (at most
    /// [`FLIGHT_CAPACITY`]).
    pub lines: Vec<Arc<str>>,
    /// Older lines of the stream, before `lines`.
    pub dropped: u64,
    /// Lines the job's progress hub dropped to stay within its bounds
    /// (see [`ProgressHub::dropped`]).
    pub hub_dropped: u64,
    /// Cumulative per-stage nanoseconds across all recorded
    /// `StageTiming` events.
    pub stages: StageNanos,
    /// Generations that contributed a `StageTiming` breakdown.
    pub timed_generations: u64,
}

/// The live watchdogs of one job; they survive suspension and requeues
/// so windowed detectors keep their history across slices.
struct WatchdogSet {
    stall: Option<StallDetector>,
    faults: Option<FaultRateAlarm>,
}

impl WatchdogSet {
    fn build(spec: &JobSpec) -> Self {
        WatchdogSet {
            stall: (spec.stall_window > 0).then(|| {
                let nobj = spec.problem.build().num_objectives();
                StallDetector::new(vec![STALL_REF; nobj], spec.stall_window)
            }),
            faults: spec.fault_alarm.map(FaultRateAlarm::new),
        }
    }

    fn record(&mut self, event: &RunEvent) {
        if let Some(stall) = self.stall.as_mut() {
            stall.record(event);
        }
        if let Some(faults) = self.faults.as_mut() {
            faults.record(event);
        }
    }

    /// Fault warnings outrank stall warnings; warnings only accumulate,
    /// so a job that ever stalled stays marked until it terminates.
    fn health(&self) -> JobHealth {
        let faulty = self
            .faults
            .as_ref()
            .is_some_and(|w| !w.warnings().is_empty());
        let stalled = self
            .stall
            .as_ref()
            .is_some_and(|w| !w.warnings().is_empty());
        if faulty {
            JobHealth::Faulty
        } else if stalled {
            JobHealth::Stalled
        } else {
            JobHealth::Healthy
        }
    }
}

/// Per-slice composite sink: disk JSONL + progress hub + watchdogs +
/// flight recorder + registry bridge. Each event is encoded once; the
/// file and the hub share the line.
struct SegmentSink<'a> {
    jsonl: &'a mut JsonlSink<BufWriter<fs::File>>,
    hub: &'a ProgressHub,
    watch: &'a mut WatchdogSet,
    flight: &'a Mutex<FlightRecorder>,
    run_metrics: &'a mut RegistrySink,
}

impl Sink for SegmentSink<'_> {
    fn record(&mut self, event: &RunEvent) {
        let line: Arc<str> = event.to_json().into();
        self.jsonl.write_line(&line);
        self.hub.publish(line);
        self.flight
            .lock()
            .expect("flight recorder lock poisoned")
            .record(event);
        self.watch.record(event);
        self.run_metrics.record(event);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.jsonl.flush()
    }
}

/// In-memory companion of one job.
struct JobRuntime {
    spec: JobSpec,
    hub: ProgressHub,
    cancel: AtomicBool,
    state: Mutex<JobState>,
    watch: Mutex<Option<WatchdogSet>>,
    flight: Mutex<FlightRecorder>,
}

impl JobRuntime {
    fn new(spec: JobSpec, state: JobState) -> Self {
        JobRuntime {
            spec,
            hub: ProgressHub::new(),
            cancel: AtomicBool::new(false),
            state: Mutex::new(state),
            watch: Mutex::new(None),
            flight: Mutex::new(FlightRecorder::default()),
        }
    }
}

/// The message a caught panic carried.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string payload"
    }
}

/// Scrapes the completed-generation count out of checkpoint text (both
/// SACGA and MESACGA checkpoints embed an engine-state `gen <n>` line).
fn checkpoint_generation(text: &str) -> Option<usize> {
    text.lines()
        .find_map(|line| line.strip_prefix("gen "))
        .and_then(|v| v.parse().ok())
}

/// The optimization service (see module docs).
pub struct Server {
    config: ServerConfig,
    store: JobStore,
    queue: JobQueue,
    jobs: Mutex<HashMap<JobId, Arc<JobRuntime>>>,
    /// Shared caches by (tenant, problem token): a cached value is a
    /// function of the genes only within one problem.
    tenants: Mutex<HashMap<(String, String), SharedCache<Evaluation>>>,
    shutdown: AtomicBool,
    registry: MetricsRegistry,
    metrics: ServerMetrics,
    running: AtomicUsize,
}

impl Server {
    /// Opens a server over `store_root`, rescanning any persisted jobs:
    /// terminal jobs are registered as-is, without reading their event
    /// streams, and everything else is re-enqueued to resume from its
    /// last checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn open(
        store_root: impl Into<std::path::PathBuf>,
        config: ServerConfig,
    ) -> Result<Server, ServerError> {
        let store = JobStore::open(store_root)?;
        let registry = MetricsRegistry::new();
        let metrics = ServerMetrics::register(&registry);
        let server = Server {
            queue: JobQueue::new(config.queue_capacity),
            config,
            store,
            jobs: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            registry,
            metrics,
            running: AtomicUsize::new(0),
        };
        for id in server.store.scan()? {
            server.rescan_job(id)?;
        }
        Ok(server)
    }

    fn rescan_job(&self, id: JobId) -> Result<(), ServerError> {
        let spec = match self.store.read_spec(id) {
            Ok(spec) => spec,
            // A directory without a readable spec was never fully
            // submitted; leave it for manual inspection.
            Err(_) => return Ok(()),
        };
        let state = self.store.read_state(id);
        match state {
            Some(state) if state.status.is_terminal() => {
                // A finished hub holds no lines: the job's history is
                // read from `events.jsonl` when a client asks for it.
                let rt = Arc::new(JobRuntime::new(spec, state));
                rt.hub.finish();
                self.jobs.lock().unwrap().insert(id, rt);
            }
            other => {
                // Queued, running, suspended, or a torn/missing state
                // file: the job is in flight and must be resumed. Trim
                // the event stream back to the checkpoint so the resumed
                // run appends without duplicating generations; the kept
                // events rebuild the job's watchdogs.
                let generations = self
                    .store
                    .read_checkpoint(id)
                    .as_deref()
                    .and_then(checkpoint_generation)
                    .unwrap_or(0);
                let rt = Arc::new(JobRuntime::new(
                    spec.clone(),
                    JobState {
                        status: JobStatus::Queued,
                        generations,
                        ..other.unwrap_or_else(JobState::queued)
                    },
                ));
                let mut watch = WatchdogSet::build(&spec);
                self.trim_events(id, generations, &rt.hub, &mut watch)?;
                *rt.watch.lock().unwrap() = Some(watch);
                self.store.write_state(id, &rt.state.lock().unwrap())?;
                self.jobs.lock().unwrap().insert(id, rt);
                self.queue.requeue(id, spec.priority);
            }
        }
        Ok(())
    }

    /// Rewrites `events.jsonl` keeping only the prefix up to (and
    /// including) the `generations`-th `GenerationEnd`, dropping events
    /// a killed daemon emitted past its last persisted checkpoint. Each
    /// kept event is encoded once, into the rewritten file and the hub,
    /// and replayed into `watch`. The rewrite goes to a `.partial` file
    /// renamed over the stream, so a crash mid-trim keeps the old one.
    fn trim_events(
        &self,
        id: JobId,
        generations: usize,
        hub: &ProgressHub,
        watch: &mut WatchdogSet,
    ) -> Result<(), ServerError> {
        let path = self.store.events_path(id);
        if !path.exists() {
            return Ok(()); // no stream yet
        }
        if generations == 0 {
            fs::remove_file(&path)?;
            return Ok(());
        }
        let partial = partial_path(&path);
        let mut sink = JsonlSink::create(&partial)?;
        let mut ends = 0usize;
        self.store.for_each_event(id, |event| {
            let line: Arc<str> = event.to_json().into();
            sink.write_line(&line);
            hub.publish(line);
            watch.record(&event);
            if event.kind() == EventKind::GenerationEnd {
                ends += 1;
                if ends == generations {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        })?;
        sink.flush()?;
        fs::rename(&partial, &path)?;
        Ok(())
    }

    /// The store this server persists into.
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// Submits a job; returns its deterministic id.
    ///
    /// # Errors
    ///
    /// [`ServerError::InvalidSpec`] on validation failure,
    /// [`ServerError::DuplicateJob`] when the identical canonical spec
    /// was already submitted, [`ServerError::QueueFull`] /
    /// [`ServerError::ShuttingDown`] from the queue, and I/O errors
    /// from persistence.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServerError> {
        spec.validate()?;
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::ShuttingDown);
        }
        let id = spec.id();
        {
            let mut jobs = self.jobs.lock().unwrap();
            if jobs.contains_key(&id) {
                return Err(ServerError::DuplicateJob(id));
            }
            self.store.create_job(id, &spec)?;
            self.store.write_state(id, &JobState::queued())?;
            jobs.insert(
                id,
                Arc::new(JobRuntime::new(spec.clone(), JobState::queued())),
            );
        }
        if let Err(e) = self.queue.push(id, spec.priority) {
            self.fail_job(id, &format!("not enqueued: {e}"));
            return Err(e);
        }
        self.metrics.jobs_submitted.inc();
        Ok(id)
    }

    fn runtime(&self, id: JobId) -> Result<Arc<JobRuntime>, ServerError> {
        self.jobs
            .lock()
            .unwrap()
            .get(&id)
            .cloned()
            .ok_or_else(|| ServerError::UnknownJob(id.to_string()))
    }

    fn view_of(&self, id: JobId, rt: &JobRuntime) -> JobView {
        let state = rt.state.lock().unwrap().clone();
        JobView {
            id,
            name: rt.spec.name.clone(),
            status: state.status,
            health: state.endpoint_health(),
            generations: state.generations,
            candidates: state.candidates,
            evaluations: state.evaluations,
            cache_hits: state.cache_hits,
            screened: state.screened,
            error: state.error,
        }
    }

    /// Snapshot of one job.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here.
    pub fn status(&self, id: JobId) -> Result<JobView, ServerError> {
        let rt = self.runtime(id)?;
        Ok(self.view_of(id, &rt))
    }

    /// The per-job health endpoint.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here.
    pub fn health(&self, id: JobId) -> Result<JobHealth, ServerError> {
        Ok(self.status(id)?.health)
    }

    /// Snapshots of every known job, sorted by id.
    pub fn list(&self) -> Vec<JobView> {
        let jobs = self.jobs.lock().unwrap();
        let mut views: Vec<JobView> = jobs.iter().map(|(id, rt)| self.view_of(*id, rt)).collect();
        views.sort_by_key(|v| v.id);
        views
    }

    /// Requests cancellation; takes effect at the job's next slice
    /// boundary (or dequeue).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here.
    pub fn cancel(&self, id: JobId) -> Result<(), ServerError> {
        let rt = self.runtime(id)?;
        rt.cancel.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Polls a job's progress stream from offset `cursor`: a job that
    /// can still run from its hub (see [`ProgressHub::poll`]), a finished
    /// job from its `events.jsonl`, in one pass that returns at most
    /// [`HUB_CAPACITY`] lines and [`HUB_BYTES`] bytes (but at least one
    /// line); `done` is set once a poll reaches the end of the stream.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here, and
    /// read failures of a finished job's stream.
    pub fn poll_progress(
        &self,
        id: JobId,
        cursor: u64,
        timeout: Duration,
    ) -> Result<HubPoll, ServerError> {
        let mut lines: Vec<Arc<str>> = Vec::new();
        let mut bytes = 0usize;
        let (next, skipped, done) = self.read_stream(id, cursor, timeout, |line| {
            let full = lines.len() == HUB_CAPACITY || bytes + line.len() > HUB_BYTES;
            if full && !lines.is_empty() {
                return ControlFlow::Break(());
            }
            bytes += line.len();
            lines.push(line);
            ControlFlow::Continue(())
        })?;
        Ok(HubPoll {
            lines,
            next,
            skipped,
            done,
        })
    }

    /// Feeds `emit` the lines of a job's stream from offset `cursor` on,
    /// until it breaks: a job that can still run gives what its hub holds
    /// (waiting up to `timeout` for a first line), a finished job the
    /// rest of its `events.jsonl`, each line re-encoded through the lossy
    /// parser as it is read. Returns the cursor after the last line
    /// `emit` took, the lines the hub had dropped before `cursor`, and
    /// whether the stream ended there.
    pub(crate) fn read_stream(
        &self,
        id: JobId,
        cursor: u64,
        timeout: Duration,
        mut emit: impl FnMut(Arc<str>) -> ControlFlow<()>,
    ) -> Result<(u64, u64, bool), ServerError> {
        let rt = self.runtime(id)?;
        let poll = rt.hub.poll(cursor, timeout);
        let mut next = poll.next - poll.lines.len() as u64;
        if !poll.done {
            for line in poll.lines {
                if emit(line).is_break() {
                    break;
                }
                next += 1;
            }
            return Ok((next, poll.skipped, false));
        }
        let mut index = 0u64;
        let mut done = true;
        self.store.for_each_event(id, |event| {
            index += 1;
            if index <= cursor {
                return ControlFlow::Continue(());
            }
            if emit(event.to_json().into()).is_break() {
                done = false;
                return ControlFlow::Break(());
            }
            next += 1;
            ControlFlow::Continue(())
        })?;
        Ok((next, 0, done))
    }

    /// The process-wide metrics registry every job records into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Pulls the scrape-time gauges (queue depth, running jobs, and the
    /// bytes the hubs hold and the lines they dropped, summed over every
    /// job) up to date; counters and histograms are maintained on the hot
    /// paths and need no refresh. A job's own drops are in its `debug`
    /// report.
    #[allow(clippy::cast_precision_loss)]
    fn refresh_gauges(&self) {
        self.metrics.queue_depth.set(self.queue.len() as f64);
        self.metrics
            .jobs_running
            .set(self.running.load(Ordering::SeqCst) as f64);
        let (mut retained, mut dropped) = (0usize, 0u64);
        for rt in self.jobs.lock().unwrap().values() {
            retained += rt.hub.retained_bytes();
            dropped += rt.hub.dropped();
        }
        self.metrics.hub_retained_bytes.set(retained as f64);
        self.metrics.hub_dropped_lines.set(dropped as f64);
    }

    /// A live snapshot in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.registry.render_text()
    }

    /// The same snapshot as one canonical JSON line.
    pub fn metrics_json(&self) -> String {
        self.refresh_gauges();
        self.registry.render_json()
    }

    /// A copy of one job's flight recorder with the newest lines of its
    /// stream (see [`FlightReport`]).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here, and
    /// read failures of a finished job's stream.
    pub fn debug_report(&self, id: JobId) -> Result<FlightReport, ServerError> {
        let rt = self.runtime(id)?;
        let (lines, total) = match rt.hub.tail(FLIGHT_CAPACITY) {
            Some(tail) => tail,
            None => self.stored_tail(id)?,
        };
        // A run that panicked while holding the recorder left its totals
        // valid: each update is one merge.
        let flight = rt.flight.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(FlightReport {
            dropped: total - lines.len() as u64,
            lines,
            hub_dropped: rt.hub.dropped(),
            stages: flight.stages,
            timed_generations: flight.timed_generations,
        })
    }

    /// The newest [`FLIGHT_CAPACITY`] lines of a finished job's
    /// `events.jsonl` and the stream's length, read in one pass.
    fn stored_tail(&self, id: JobId) -> Result<(Vec<Arc<str>>, u64), ServerError> {
        let mut newest = VecDeque::with_capacity(FLIGHT_CAPACITY);
        let mut total = 0u64;
        self.store.for_each_event(id, |event| {
            if newest.len() == FLIGHT_CAPACITY {
                newest.pop_front();
            }
            newest.push_back(event);
            total += 1;
            ControlFlow::Continue(())
        })?;
        let lines = newest.iter().map(|e| e.to_json().into()).collect();
        Ok((lines, total))
    }

    /// Whether a shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: stops accepting work, wakes blocked workers,
    /// and makes running jobs suspend at their next slice boundary.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Runs the worker pool until every queued job is terminal.
    ///
    /// # Errors
    ///
    /// Propagates worker-pool failures.
    pub fn run_until_idle(&self) -> Result<(), ServerError> {
        self.run_workers(PopMode::Drain, None).map(|_| ())
    }

    /// Runs the worker pool, stopping abruptly (like a `kill -9`) after
    /// `budget` generation slices have been *started* across all jobs.
    /// Returns `true` when the queue drained within the budget.
    ///
    /// In-flight jobs are left exactly as their last slice persisted
    /// them; reopening the store resumes them bit-identically.
    ///
    /// # Errors
    ///
    /// Propagates worker-pool failures.
    pub fn run_slices_at_most(&self, budget: usize) -> Result<bool, ServerError> {
        self.run_workers(PopMode::Drain, Some(budget))
    }

    fn run_workers(&self, mode: PopMode, budget: Option<usize>) -> Result<bool, ServerError> {
        let spent = AtomicUsize::new(0);
        let halt = AtomicBool::new(false);
        engine::pool::try_map_indexed(self.config.workers, self.config.workers, |_w| {
            while let Some(id) = self.queue.pop(mode, &halt) {
                // A job that panics fails alone: its worker serves on,
                // and every pop is balanced, so a drain still returns.
                let run = panic::catch_unwind(AssertUnwindSafe(|| {
                    self.run_one(id, budget, &spent, &halt);
                }));
                if let Err(payload) = run {
                    let message = panic_message(payload.as_ref());
                    self.fail_job(id, &format!("job panicked: {message}"));
                }
                self.queue.task_done();
            }
            Ok::<(), ServerError>(())
        })?;
        Ok(!halt.load(Ordering::SeqCst))
    }

    /// Serves the line protocol on `listener` until a client sends
    /// `shutdown` (or [`Server::request_shutdown`] is called), on at most
    /// [`MAX_CONNECTIONS`] connections at once.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn serve(&self, listener: TcpListener) -> Result<(), ServerError> {
        listener.set_nonblocking(true)?;
        // Only this loop opens connections, so a count read below the cap
        // stays below it until the increment.
        let connections = AtomicUsize::new(0);
        std::thread::scope(|scope| -> Result<(), ServerError> {
            let workers = scope.spawn(|| self.run_workers(PopMode::Wait, None));
            loop {
                if self.is_shutting_down() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        if connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                            crate::protocol::refuse_busy(stream);
                            continue;
                        }
                        connections.fetch_add(1, Ordering::SeqCst);
                        let open = CountGuard(&connections);
                        scope.spawn(move || {
                            let _open = open;
                            crate::protocol::handle_connection(self, stream);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => return Err(ServerError::Io(e)),
                }
            }
            self.queue.close();
            workers.join().expect("worker pool panicked")?;
            Ok(())
        })
    }

    fn tenant_cache(&self, tenant: &str, problem: &ProblemSpec) -> SharedCache<Evaluation> {
        self.tenants
            .lock()
            .unwrap()
            .entry((tenant.to_string(), problem.token()))
            .or_insert_with(|| SharedCache::new(self.config.cache.clone()))
            .clone()
    }

    fn update_state(&self, id: JobId, rt: &JobRuntime, f: impl FnOnce(&mut JobState)) {
        let mut state = rt.state.lock().unwrap();
        f(&mut state);
        // Persistence is best-effort here: a full disk must not take the
        // whole pool down, and the next successful write supersedes.
        let _ = self.store.write_state(id, &state);
    }

    /// Moves a job to a terminal state and releases its hub's lines.
    /// Every terminal path comes here once the job's JSONL sink is
    /// flushed (a panicked run's sink is flushed as the panic unwinds
    /// past it), so a reader the released hub sends to `events.jsonl`
    /// finds the whole stream.
    fn end_job(&self, id: JobId, rt: &JobRuntime, f: impl FnOnce(&mut JobState)) {
        self.update_state(id, rt, f);
        rt.hub.finish();
    }

    fn fail_job(&self, id: JobId, message: &str) {
        if let Ok(rt) = self.runtime(id) {
            self.end_job(id, &rt, |s| {
                s.status = JobStatus::Failed;
                s.error = Some(message.to_string());
            });
            self.metrics.jobs_failed.inc();
        }
    }

    /// Executes one popped job until it completes, fails, is cancelled,
    /// yields to a contended queue, or the slice budget kills the pool.
    /// The caller balances the pop with [`JobQueue::task_done`].
    fn run_one(&self, id: JobId, budget: Option<usize>, spent: &AtomicUsize, halt: &AtomicBool) {
        let Ok(rt) = self.runtime(id) else {
            return;
        };
        if rt.cancel.load(Ordering::SeqCst) {
            self.end_job(id, &rt, |s| s.status = JobStatus::Cancelled);
            return;
        }
        let spec = rt.spec.clone();
        let cache = spec
            .tenant
            .as_deref()
            .map(|t| self.tenant_cache(t, &spec.problem));
        // Series keyed by tenant and arm in the shared registry.
        // Registration is idempotent, so a requeued job, and every job of
        // the same tenant and arm, adds into the same handles.
        let labels = [
            ("tenant", spec.tenant.as_deref().unwrap_or("none")),
            ("arm", spec.algo.arm()),
        ];
        let engine_metrics = EngineMetrics::register(&self.registry, &labels);
        let mut run_metrics = RegistrySink::register(&self.registry, &labels);
        let opt = match spec.build_optimizer(cache, Some(engine_metrics)) {
            Ok(opt) => opt,
            Err(e) => {
                self.fail_job(id, &e.to_string());
                return;
            }
        };
        self.running.fetch_add(1, Ordering::SeqCst);
        let _running = CountGuard(&self.running);
        // Watchdogs persist across requeues in memory (a terminal job
        // drops them); after a daemon restart the rescan rebuilt them
        // from the trimmed stream.
        let mut watch = rt
            .watch
            .lock()
            .unwrap()
            .take()
            .unwrap_or_else(|| WatchdogSet::build(&spec));
        let mut jsonl = match JsonlSink::append(self.store.events_path(id)) {
            Ok(sink) => sink,
            Err(e) => {
                self.fail_job(id, &format!("cannot open event stream: {e}"));
                return;
            }
        };
        self.update_state(id, &rt, |s| s.status = JobStatus::Running);
        let quantum = if spec.slice == 0 {
            usize::MAX
        } else {
            spec.slice
        };
        let mut checkpoint_text = self.store.read_checkpoint(id);
        let mut done_gens = rt.state.lock().unwrap().generations;
        loop {
            if let Some(limit) = budget {
                if spent.fetch_add(1, Ordering::SeqCst) >= limit {
                    // Simulated kill: stop the pool without persisting
                    // anything beyond the last slice boundary.
                    halt.store(true, Ordering::SeqCst);
                    self.queue.interrupt();
                    *rt.watch.lock().unwrap() = Some(watch);
                    return;
                }
            }
            let target = done_gens.saturating_add(quantum);
            let mut sink = SegmentSink {
                jsonl: &mut jsonl,
                hub: &rt.hub,
                watch: &mut watch,
                flight: &rt.flight,
                run_metrics: &mut run_metrics,
            };
            let slice_start = Instant::now();
            let status = match &checkpoint_text {
                Some(text) => opt.resume_until_dyn_with(text, target, &mut sink),
                None => opt.run_until_dyn_with(spec.seed, target, &mut sink),
            };
            self.metrics.slices.observe_duration(slice_start.elapsed());
            match status {
                Err(e) => {
                    let _ = jsonl.flush();
                    let health = watch.health();
                    self.end_job(id, &rt, |s| {
                        s.status = JobStatus::Failed;
                        s.health = health;
                        s.error = Some(e.to_string());
                    });
                    self.metrics.jobs_failed.inc();
                    return;
                }
                Ok(DynRunStatus::Complete(outcome)) => {
                    let _ = jsonl.flush();
                    self.complete_job(id, &rt, &spec, &outcome, &watch);
                    return;
                }
                Ok(DynRunStatus::Suspended {
                    checkpoint,
                    generations,
                }) => {
                    let _ = jsonl.flush();
                    if let Err(e) = self.store.write_checkpoint(id, &checkpoint) {
                        self.fail_job(id, &format!("cannot persist checkpoint: {e}"));
                        return;
                    }
                    done_gens = generations;
                    let health = watch.health();
                    self.update_state(id, &rt, |s| {
                        s.status = JobStatus::Suspended;
                        s.generations = generations;
                        s.health = health;
                    });
                    if rt.cancel.load(Ordering::SeqCst) {
                        self.end_job(id, &rt, |s| s.status = JobStatus::Cancelled);
                        return;
                    }
                    if self.is_shutting_down() {
                        // Graceful: leave suspended; resumes next boot.
                        *rt.watch.lock().unwrap() = Some(watch);
                        return;
                    }
                    if self.queue.contended() {
                        // Cooperative preemption: yield the worker.
                        self.metrics.preemptions.inc();
                        self.update_state(id, &rt, |s| s.status = JobStatus::Queued);
                        *rt.watch.lock().unwrap() = Some(watch);
                        self.queue.requeue(id, spec.priority);
                        return;
                    }
                    checkpoint_text = Some(checkpoint);
                }
            }
        }
    }

    fn complete_job(
        &self,
        id: JobId,
        rt: &JobRuntime,
        spec: &JobSpec,
        outcome: &RunOutcome,
        watch: &WatchdogSet,
    ) {
        let result = CellResult::from_outcome(spec.algo.token(), spec.seed, outcome);
        if let Err(e) = self.store.write_outcome(id, &result) {
            self.fail_job(id, &format!("cannot persist outcome: {e}"));
            return;
        }
        let health = watch.health();
        self.end_job(id, rt, |s| {
            s.status = JobStatus::Done;
            s.generations = outcome.generations;
            s.candidates = outcome.stats.candidates;
            s.evaluations = outcome.stats.evaluations;
            s.cache_hits = outcome.stats.cache_hits;
            s.screened = outcome.stats.screened;
            s.health = health;
        });
        self.metrics.jobs_completed.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AlgoSpec;

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dse-server-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The lossy replay of a job's `events.jsonl`, each event re-encoded.
    fn stored_lines(server: &Server, id: JobId) -> Vec<Arc<str>> {
        let text = fs::read_to_string(server.store().events_path(id)).unwrap_or_default();
        RunEvent::parse_jsonl_lossy(&text)
            .events
            .iter()
            .map(|event| event.to_json().into())
            .collect()
    }

    fn quick_spec(name: &str) -> JobSpec {
        JobSpec::new(
            name,
            ProblemSpec::Schaffer,
            AlgoSpec::Sacga {
                pop: 16,
                gens: 6,
                parts: 4,
            },
            42,
        )
    }

    #[test]
    fn submit_run_and_report() {
        let root = tmp_root("basic");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("basic")).unwrap();
        assert!(matches!(
            server.submit(quick_spec("basic")),
            Err(ServerError::DuplicateJob(_))
        ));
        server.run_until_idle().unwrap();
        let view = server.status(id).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert_eq!(view.health, JobHealth::Done);
        assert_eq!(view.generations, 6);
        assert!(view.candidates > 0);
        assert_eq!(
            view.candidates,
            view.evaluations + view.cache_hits + view.screened
        );
        assert!(server.store().read_outcome(id).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cancelled_before_running_never_executes() {
        let root = tmp_root("cancel");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("cancel")).unwrap();
        server.cancel(id).unwrap();
        server.run_until_idle().unwrap();
        let view = server.status(id).unwrap();
        assert_eq!(view.status, JobStatus::Cancelled);
        assert_eq!(view.health, JobHealth::Failed);
        assert!(server.store().read_outcome(id).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn streaming_sees_generation_events() {
        let root = tmp_root("stream");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("stream")).unwrap();
        server.run_until_idle().unwrap();
        let poll = server.poll_progress(id, 0, Duration::ZERO).unwrap();
        assert!(poll.done);
        assert_eq!(poll.lines, stored_lines(&server, id));
        let replay = RunEvent::parse_jsonl_lossy(&poll.lines.join("\n"));
        let ends = replay
            .events
            .iter()
            .filter(|e| e.kind() == EventKind::GenerationEnd)
            .count();
        assert_eq!(ends, 6);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_finished_job_hands_its_stream_over_to_disk() {
        // Kill a job after one slice: its hub still holds the lines.
        let root = tmp_root("handover");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("handover").slice(2)).unwrap();
        assert!(!server.run_slices_at_most(1).unwrap());
        let rt = server.runtime(id).unwrap();
        let live = server.poll_progress(id, 0, Duration::ZERO).unwrap();
        assert!(!live.done);
        assert!(live.lines.len() > 2);
        assert!(rt.hub.retained_bytes() > 0);
        // Ending the job releases the lines; a subscriber two lines short
        // of the end reads those two from `events.jsonl`.
        server.end_job(id, &rt, |s| s.status = JobStatus::Cancelled);
        assert_eq!(rt.hub.retained_bytes(), 0);
        let rest = server
            .poll_progress(id, live.next - 2, Duration::ZERO)
            .unwrap();
        assert_eq!(rest.lines, live.lines[live.lines.len() - 2..]);
        assert_eq!((rest.next, rest.skipped, rest.done), (live.next, 0, true));
        assert_eq!(live.lines, stored_lines(&server, id));
        // A reopen registers the finished job without reading its stream.
        drop((rt, server));
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        assert_eq!(server.runtime(id).unwrap().hub.retained_bytes(), 0);
        let replayed = server.poll_progress(id, 0, Duration::ZERO).unwrap();
        assert_eq!(replayed.lines, live.lines);
        assert!(replayed.done);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scrape_balances_and_is_monotone() {
        let root = tmp_root("scrape");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let spec = quick_spec("scrape").tenant("acme");
        let id = server.submit(spec).unwrap();
        server.run_until_idle().unwrap();
        let text = server.metrics_text();
        let sample = |name: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("{name} missing from scrape:\n{text}"))
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let labels = "{arm=\"sacga\",tenant=\"acme\"}";
        let candidates = sample(&format!("dse_engine_candidates_total{labels}"));
        let evaluations = sample(&format!("dse_engine_evaluations_total{labels}"));
        let cache_hits = sample(&format!("dse_engine_cache_hits_total{labels}"));
        let screened = sample(&format!("dse_engine_screened_total{labels}"));
        assert!(candidates > 0);
        assert_eq!(candidates, evaluations + cache_hits + screened);
        let view = server.status(id).unwrap();
        assert_eq!(candidates, view.candidates);
        assert_eq!(sample(&format!("dse_run_generations_total{labels}")), 6);
        assert_eq!(
            sample(&format!("dse_engine_eval_latency_seconds_count{labels}")),
            evaluations
        );
        assert!(text.contains("dse_server_jobs_submitted_total 1"));
        assert!(text.contains("dse_server_jobs_completed_total 1"));
        assert!(text.contains("\ndse_hub_dropped_lines 0\n"));
        // A second scrape with no new work is byte-identical (counters
        // monotone, gauges unchanged).
        assert_eq!(server.metrics_text(), text);
        // JSON snapshot is one line over the same series.
        let json = server.metrics_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(!json.contains('\n'));
        let _ = fs::remove_dir_all(&root);
    }

    /// The sorted series (name and labels) of a scrape's sample lines.
    fn series(text: &str) -> Vec<&str> {
        let mut out: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' ').map(|(series, _)| series))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn the_scrape_does_not_grow_with_the_jobs_served() {
        let root = tmp_root("bounded");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let spec = |i: u64| {
            JobSpec::new(
                format!("b{i}"),
                ProblemSpec::Schaffer,
                AlgoSpec::Nsga2 { pop: 16, gens: 10 },
                i,
            )
            .tenant("acme")
        };
        server.submit(spec(0)).unwrap();
        server.run_until_idle().unwrap();
        let first = server.metrics_text();
        for i in 1..20 {
            server.submit(spec(i)).unwrap();
        }
        server.run_until_idle().unwrap();
        let later = server.metrics_text();
        assert!(later.contains("dse_server_jobs_completed_total 20"));
        assert_eq!(series(&first), series(&later));
        assert!(!later.contains("job="), "{later}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn each_tenant_and_arm_series_sums_its_jobs() {
        let root = tmp_root("aggregate");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let sacga = AlgoSpec::Sacga {
            pop: 16,
            gens: 6,
            parts: 4,
        };
        let nsga2 = AlgoSpec::Nsga2 { pop: 16, gens: 6 };
        // (tenant, arm, slice): one sacga job suspends every 2
        // generations and resumes from its checkpoint.
        let plan = [
            ("acme", &sacga, 0),
            ("acme", &sacga, 2),
            ("acme", &nsga2, 0),
            ("beta", &sacga, 0),
            ("beta", &nsga2, 0),
            ("beta", &nsga2, 0),
        ];
        let mut jobs = Vec::new();
        for (seed, (tenant, algo, slice)) in (0u64..).zip(plan) {
            let spec = JobSpec::new(
                format!("a{seed}"),
                ProblemSpec::Schaffer,
                algo.clone(),
                seed,
            )
            .tenant(tenant)
            .slice(slice);
            jobs.push((tenant, algo.arm(), server.submit(spec).unwrap()));
        }
        server.run_until_idle().unwrap();
        let text = server.metrics_text();
        let sample = |name: &str, tenant: &str, arm: &str| -> u64 {
            let series = format!("{name}{{arm=\"{arm}\",tenant=\"{tenant}\"}} ");
            text.lines()
                .find_map(|l| l.strip_prefix(series.as_str()))
                .unwrap_or_else(|| panic!("{series} missing from scrape:\n{text}"))
                .parse()
                .unwrap()
        };
        assert_eq!(sample("dse_run_checkpoints_total", "acme", "sacga"), 2);
        for tenant in ["acme", "beta"] {
            for arm in ["sacga", "nsga2"] {
                let views: Vec<JobView> = jobs
                    .iter()
                    .filter(|(t, a, _)| (*t, *a) == (tenant, arm))
                    .map(|(_, _, id)| server.status(*id).unwrap())
                    .collect();
                assert!(views.iter().all(|v| v.status == JobStatus::Done));
                let sum = |field: fn(&JobView) -> u64| views.iter().map(field).sum::<u64>();
                assert_eq!(
                    sample("dse_engine_candidates_total", tenant, arm),
                    sum(|v| v.candidates)
                );
                assert_eq!(
                    sample("dse_engine_evaluations_total", tenant, arm),
                    sum(|v| v.evaluations)
                );
                assert_eq!(
                    sample("dse_run_generations_total", tenant, arm),
                    sum(|v| v.generations as u64)
                );
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flight_recorder_keeps_the_event_tail() {
        let root = tmp_root("flight");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("flight")).unwrap();
        server.run_until_idle().unwrap();
        let report = server.debug_report(id).unwrap();
        assert!(!report.lines.is_empty());
        assert!(report.lines.len() <= FLIGHT_CAPACITY);
        assert_eq!(report.lines, stored_lines(&server, id));
        assert_eq!(report.dropped, 0);
        assert_eq!(report.hub_dropped, 0);
        assert_eq!(report.timed_generations, 6);
        // Every retained line is a replayable event.
        let replay = RunEvent::parse_jsonl_lossy(&report.lines.join("\n"));
        assert_eq!(replay.events.len(), report.lines.len());
        assert!(server
            .debug_report(JobId::parse("00000000deadbeef").unwrap())
            .is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_job_that_panics_fails_alone_and_the_pool_serves_on() {
        // Poison the job's flight-recorder lock: the first event its run
        // records unwraps the poisoned lock and panics mid-slice.
        let root = tmp_root("panic");
        let server = Arc::new(Server::open(&root, ServerConfig::new()).unwrap());
        let id = server.submit(quick_spec("panics")).unwrap();
        let healthy = server.submit(quick_spec("healthy")).unwrap();
        let rt = server.runtime(id).unwrap();
        let poisoned = std::thread::spawn(move || {
            let _held = rt.flight.lock().unwrap();
            panic!("poisoning the flight recorder");
        })
        .join();
        assert!(poisoned.is_err());
        // Drain on a thread, so that a wedged pool fails the test instead
        // of hanging it.
        let (done, drained) = std::sync::mpsc::channel();
        let draining = Arc::clone(&server);
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
                .is_some_and(|e| e.starts_with("job panicked:")),
            "{:?}",
            failed.error
        );
        assert_eq!(server.status(healthy).unwrap().status, JobStatus::Done);
        assert!(server
            .metrics_text()
            .contains("dse_server_jobs_failed_total 1"));
        // Releasing the failed job's stream got past the poisoned lock:
        // its hub holds no lines, and its stream (the line written before
        // the panic) and `debug` are served from `events.jsonl`.
        assert_eq!(server.runtime(id).unwrap().hub.retained_bytes(), 0);
        let stored = stored_lines(&server, id);
        assert_eq!(stored.len(), 1);
        let poll = server.poll_progress(id, 0, Duration::ZERO).unwrap();
        assert_eq!(
            (poll.lines.as_slice(), poll.done),
            (stored.as_slice(), true)
        );
        assert_eq!(server.debug_report(id).unwrap().lines, stored);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_job_is_an_error() {
        let root = tmp_root("unknown");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = JobId::parse("00000000deadbeef").unwrap();
        assert!(matches!(server.status(id), Err(ServerError::UnknownJob(_))));
        let _ = fs::remove_dir_all(&root);
    }
}
