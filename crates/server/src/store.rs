//! Crash-safe per-job persistence.
//!
//! Each job owns one directory under the store root:
//!
//! ```text
//! store/
//!   job_<16-hex-id>/
//!     spec.job        # canonical JobSpec line (written once at submit)
//!     state.job       # status/progress/health, rewritten atomically
//!     checkpoint.txt  # optimizer checkpoint text at the last slice
//!     events.jsonl    # RunEvent stream (appended; torn tails healed)
//!     outcome.cell    # final CellResult text (atomic, terminal only)
//! ```
//!
//! Every rewrite goes through write-to-`.partial`-then-rename, the same
//! discipline the campaign runner uses, so a crash leaves either the old
//! or the new content — never a torn file. `state.job` is nevertheless
//! *parsed defensively*: a torn or missing state file is treated as
//! "in flight" by the rescan logic, because a dead daemon may have been
//! killed before its first state write.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use crate::error::ServerError;
use crate::spec::{JobId, JobSpec};
use campaign::CellResult;
use sacga::RunEvent;

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// Claimed by a worker and executing.
    Running,
    /// Suspended at a generation boundary (checkpoint on disk).
    Suspended,
    /// Finished; `outcome.cell` holds the result.
    Done,
    /// Aborted with an error.
    Failed,
    /// Cancelled by request.
    Cancelled,
}

impl JobStatus {
    /// Whether the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }

    /// Stable lower-case token.
    pub fn token(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Suspended => "suspended",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "suspended" => JobStatus::Suspended,
            "done" => JobStatus::Done,
            "failed" => JobStatus::Failed,
            "cancelled" => JobStatus::Cancelled,
            _ => return None,
        })
    }
}

/// Watchdog-driven health of a job, as exposed by the health endpoint.
///
/// While a job is live the value reflects its watchdogs (fault beats
/// stall); once terminal, the endpoint reports [`JobHealth::Done`] or
/// [`JobHealth::Failed`] regardless of earlier warnings (the warnings
/// stay visible in `state.job` and the status line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobHealth {
    /// No watchdog has fired.
    Healthy,
    /// The stall detector observed a hypervolume/feasibility plateau.
    Stalled,
    /// The fault-rate alarm fired on at least one generation.
    Faulty,
    /// Terminal: completed successfully.
    Done,
    /// Terminal: failed or cancelled.
    Failed,
}

impl JobHealth {
    /// Stable lower-case token.
    pub fn token(self) -> &'static str {
        match self {
            JobHealth::Healthy => "healthy",
            JobHealth::Stalled => "stalled",
            JobHealth::Faulty => "faulty",
            JobHealth::Done => "done",
            JobHealth::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "healthy" => JobHealth::Healthy,
            "stalled" => JobHealth::Stalled,
            "faulty" => JobHealth::Faulty,
            "done" => JobHealth::Done,
            "failed" => JobHealth::Failed,
            _ => return None,
        })
    }
}

/// Persisted progress snapshot of one job (`state.job`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobState {
    /// Lifecycle state.
    pub status: JobStatus,
    /// Generations completed so far.
    pub generations: usize,
    /// Candidate vectors this job submitted (exact per-job accounting,
    /// also under a shared tenant cache). Filled at completion.
    pub candidates: u64,
    /// Model evaluations this job actually paid for.
    pub evaluations: u64,
    /// Candidates answered from the cache on this job's behalf.
    pub cache_hits: u64,
    /// Candidates rejected by the job's surrogate screen (never passed
    /// to the full model). `candidates = evaluations + cache_hits +
    /// screened` always balances.
    pub screened: u64,
    /// Watchdog health (never `Done`/`Failed`; those are derived from
    /// `status` by [`JobState::endpoint_health`]).
    pub health: JobHealth,
    /// Error message for failed jobs.
    pub error: Option<String>,
}

impl JobState {
    /// A fresh queued state.
    pub fn queued() -> Self {
        JobState {
            status: JobStatus::Queued,
            generations: 0,
            candidates: 0,
            evaluations: 0,
            cache_hits: 0,
            screened: 0,
            health: JobHealth::Healthy,
            error: None,
        }
    }

    /// The health value the per-job health endpoint reports: terminal
    /// statuses mask live watchdog health.
    pub fn endpoint_health(&self) -> JobHealth {
        match self.status {
            JobStatus::Done => JobHealth::Done,
            JobStatus::Failed | JobStatus::Cancelled => JobHealth::Failed,
            _ => self.health,
        }
    }

    /// Serializes to the `state.job` text form.
    pub fn to_text(&self) -> String {
        let mut out = String::from("jobstate v1\n");
        out.push_str(&format!("status {}\n", self.status.token()));
        out.push_str(&format!("generations {}\n", self.generations));
        out.push_str(&format!("candidates {}\n", self.candidates));
        out.push_str(&format!("evaluations {}\n", self.evaluations));
        out.push_str(&format!("cache_hits {}\n", self.cache_hits));
        // Written after cache_hits so state files from older daemons
        // (which simply lack the line) still parse with screened = 0.
        out.push_str(&format!("screened {}\n", self.screened));
        out.push_str(&format!("health {}\n", self.health.token()));
        if let Some(err) = &self.error {
            out.push_str(&format!("error {}\n", err.replace('\n', " ")));
        }
        out.push_str("end\n");
        out
    }

    /// Parses the `state.job` text form. The trailing `end` marker makes
    /// torn writes detectable: text without it is rejected.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<JobState, String> {
        let mut lines = text.lines();
        if lines.next() != Some("jobstate v1") {
            return Err("missing 'jobstate v1' header".into());
        }
        let mut state = JobState::queued();
        let mut complete = false;
        for line in lines {
            let (key, value) = match line.split_once(' ') {
                Some(kv) => kv,
                None => (line, ""),
            };
            match key {
                "status" => {
                    state.status =
                        JobStatus::parse(value).ok_or_else(|| format!("bad status {value:?}"))?;
                }
                "generations" => {
                    state.generations = value
                        .parse()
                        .map_err(|_| format!("bad generations {value:?}"))?;
                }
                "candidates" => {
                    state.candidates = value
                        .parse()
                        .map_err(|_| format!("bad candidates {value:?}"))?;
                }
                "evaluations" => {
                    state.evaluations = value
                        .parse()
                        .map_err(|_| format!("bad evaluations {value:?}"))?;
                }
                "cache_hits" => {
                    state.cache_hits = value
                        .parse()
                        .map_err(|_| format!("bad cache_hits {value:?}"))?;
                }
                "screened" => {
                    state.screened = value
                        .parse()
                        .map_err(|_| format!("bad screened {value:?}"))?;
                }
                "health" => {
                    state.health =
                        JobHealth::parse(value).ok_or_else(|| format!("bad health {value:?}"))?;
                }
                "error" => state.error = Some(value.to_string()),
                "end" => {
                    complete = true;
                    break;
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if !complete {
            return Err("truncated state (no 'end' marker)".into());
        }
        Ok(state)
    }
}

/// Atomic write: `<path>.partial` then rename, so readers (and a rescan
/// after a crash) never observe a half-written file.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = partial_path(path);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// `<path>.partial`, where a rewrite of `path` goes before its rename.
pub(crate) fn partial_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".partial");
    PathBuf::from(tmp)
}

/// The on-disk job store (see module docs for the layout).
#[derive(Debug)]
pub struct JobStore {
    root: PathBuf,
}

impl JobStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<JobStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(JobStore { root })
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory owned by `id`.
    pub fn job_dir(&self, id: JobId) -> PathBuf {
        self.root.join(format!("job_{id}"))
    }

    /// Path of the job's event stream.
    pub fn events_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("events.jsonl")
    }

    /// Path of the job's checkpoint text.
    pub fn checkpoint_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("checkpoint.txt")
    }

    /// Path of the job's final result.
    pub fn outcome_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("outcome.cell")
    }

    fn spec_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("spec.job")
    }

    fn state_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("state.job")
    }

    /// Creates the job directory and persists the spec (written once).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn create_job(&self, id: JobId, spec: &JobSpec) -> Result<(), ServerError> {
        fs::create_dir_all(self.job_dir(id))?;
        write_atomic(&self.spec_path(id), &format!("{}\n", spec.canonical()))?;
        Ok(())
    }

    /// Reads a job's spec back.
    ///
    /// # Errors
    ///
    /// [`ServerError::Corrupt`] when missing or unparseable.
    pub fn read_spec(&self, id: JobId) -> Result<JobSpec, ServerError> {
        let path = self.spec_path(id);
        let text = fs::read_to_string(&path).map_err(|e| ServerError::Corrupt {
            path: path.clone(),
            detail: e.to_string(),
        })?;
        JobSpec::parse(text.trim()).map_err(|e| ServerError::Corrupt {
            path,
            detail: e.to_string(),
        })
    }

    /// Atomically persists a state snapshot.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_state(&self, id: JobId, state: &JobState) -> Result<(), ServerError> {
        write_atomic(&self.state_path(id), &state.to_text())?;
        Ok(())
    }

    /// Reads a job's state; `Ok(None)` when the file is missing or torn
    /// (both mean "treat as in flight" to the rescan logic).
    pub fn read_state(&self, id: JobId) -> Option<JobState> {
        let text = fs::read_to_string(self.state_path(id)).ok()?;
        JobState::from_text(&text).ok()
    }

    /// Atomically persists checkpoint text.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_checkpoint(&self, id: JobId, text: &str) -> Result<(), ServerError> {
        write_atomic(&self.checkpoint_path(id), text)?;
        Ok(())
    }

    /// Reads checkpoint text, if any.
    pub fn read_checkpoint(&self, id: JobId) -> Option<String> {
        fs::read_to_string(self.checkpoint_path(id)).ok()
    }

    /// Atomically persists the final result.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_outcome(&self, id: JobId, result: &CellResult) -> Result<(), ServerError> {
        write_atomic(&self.outcome_path(id), &result.to_text())?;
        Ok(())
    }

    /// Reads and parses the final result, if present and intact.
    pub fn read_outcome(&self, id: JobId) -> Option<CellResult> {
        let text = fs::read_to_string(self.outcome_path(id)).ok()?;
        CellResult::from_text(&text).ok()
    }

    /// Visits the events of the job's `events.jsonl` in stream order,
    /// reading one line at a time, until `f` breaks. The events are those
    /// [`RunEvent::parse_jsonl_lossy`] would return for the file: blank
    /// and corrupt lines (a torn tail, a line that is not UTF-8) are
    /// skipped. A missing file is an empty stream.
    ///
    /// # Errors
    ///
    /// Propagates open and read failures other than a missing file.
    pub(crate) fn for_each_event(
        &self,
        id: JobId,
        mut f: impl FnMut(RunEvent) -> ControlFlow<()>,
    ) -> io::Result<()> {
        let file = match fs::File::open(self.events_path(id)) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut reader = BufReader::new(file);
        let mut raw = Vec::new();
        loop {
            raw.clear();
            if reader.read_until(b'\n', &mut raw)? == 0 {
                return Ok(());
            }
            // Line endings as `str::lines` strips them: `\n`, or `\r\n`.
            let line = match raw.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => &raw,
            };
            let Ok(line) = std::str::from_utf8(line) else {
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            if let Ok(event) = RunEvent::from_json(line) {
                if f(event).is_break() {
                    return Ok(());
                }
            }
        }
    }

    /// All job ids with a directory in the store, sorted.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn scan(&self) -> Result<Vec<JobId>, ServerError> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_prefix("job_") {
                if let Ok(id) = JobId::parse(hex) {
                    ids.push(id);
                }
            }
        }
        ids.sort();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgoSpec, ProblemSpec};

    fn tmp_store(tag: &str) -> JobStore {
        let dir =
            std::env::temp_dir().join(format!("dse-server-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        JobStore::open(dir).unwrap()
    }

    fn demo_spec() -> JobSpec {
        JobSpec::new(
            "demo",
            ProblemSpec::Schaffer,
            AlgoSpec::Nsga2 { pop: 8, gens: 2 },
            1,
        )
    }

    #[test]
    fn state_round_trips_including_error() {
        let mut state = JobState::queued();
        state.status = JobStatus::Failed;
        state.generations = 7;
        state.candidates = 100;
        state.evaluations = 85;
        state.cache_hits = 10;
        state.screened = 5;
        state.health = JobHealth::Faulty;
        state.error = Some("boom\nsecond line".into());
        let text = state.to_text();
        let back = JobState::from_text(&text).unwrap();
        assert_eq!(back.status, JobStatus::Failed);
        assert_eq!(back.error.as_deref(), Some("boom second line"));
        assert_eq!(back.generations, 7);
        assert_eq!(back.screened, 5);
        assert_eq!(back.health, JobHealth::Faulty);
    }

    #[test]
    fn legacy_state_without_screened_line_parses_with_zero() {
        // Stores written by pre-screening daemons lack the line entirely.
        let legacy = "jobstate v1\nstatus done\ngenerations 6\ncandidates 40\n\
                      evaluations 30\ncache_hits 10\nhealth healthy\nend\n";
        let state = JobState::from_text(legacy).unwrap();
        assert_eq!(state.screened, 0);
        assert_eq!(state.candidates, state.evaluations + state.cache_hits);
    }

    #[test]
    fn torn_state_is_rejected() {
        let full = JobState::queued().to_text();
        let torn = &full[..full.len() - 5]; // chop the 'end' marker
        assert!(JobState::from_text(torn).is_err());
        assert!(JobState::from_text("garbage").is_err());
    }

    #[test]
    fn endpoint_health_masks_terminal_statuses() {
        let mut s = JobState::queued();
        s.health = JobHealth::Stalled;
        assert_eq!(s.endpoint_health(), JobHealth::Stalled);
        s.status = JobStatus::Done;
        assert_eq!(s.endpoint_health(), JobHealth::Done);
        s.status = JobStatus::Cancelled;
        assert_eq!(s.endpoint_health(), JobHealth::Failed);
    }

    #[test]
    fn store_round_trips_spec_state_and_scan() {
        let store = tmp_store("roundtrip");
        let spec = demo_spec();
        let id = spec.id();
        store.create_job(id, &spec).unwrap();
        store.write_state(id, &JobState::queued()).unwrap();
        assert_eq!(store.read_spec(id).unwrap(), spec);
        assert_eq!(store.read_state(id).unwrap(), JobState::queued());
        assert_eq!(store.scan().unwrap(), vec![id]);
        assert!(store.read_checkpoint(id).is_none());
        assert!(store.read_outcome(id).is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn for_each_event_reads_what_the_lossy_parser_keeps() {
        let store = tmp_store("events");
        let id = demo_spec().id();
        let collect = |limit: usize| {
            let mut seen = Vec::new();
            store
                .for_each_event(id, |event| {
                    seen.push(event);
                    if seen.len() == limit {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .unwrap();
            seen
        };
        assert!(collect(usize::MAX).is_empty(), "a missing file is empty");
        let line = |g| RunEvent::CheckpointWritten { generation: g }.to_json();
        // A blank line, a CRLF ending, a corrupt line and a torn tail.
        let text = format!(
            "{}\n\n{}\r\nnot json\n{}\n{}",
            line(0),
            line(1),
            line(2),
            &line(3)[..10]
        );
        let mut bytes = b"\xff\xfe\n".to_vec();
        bytes.extend_from_slice(text.as_bytes());
        store.create_job(id, &demo_spec()).unwrap();
        fs::write(store.events_path(id), bytes).unwrap();
        let all = collect(usize::MAX);
        assert_eq!(all, RunEvent::parse_jsonl_lossy(&text).events);
        assert_eq!(all.len(), 3);
        assert_eq!(collect(2), all[..2]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn torn_state_file_reads_as_in_flight() {
        let store = tmp_store("torn");
        let spec = demo_spec();
        let id = spec.id();
        store.create_job(id, &spec).unwrap();
        fs::write(
            store.job_dir(id).join("state.job"),
            "jobstate v1\nstatus runn",
        )
        .unwrap();
        assert!(store.read_state(id).is_none());
        let _ = fs::remove_dir_all(store.root());
    }
}
