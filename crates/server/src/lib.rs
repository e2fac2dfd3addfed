#![warn(missing_docs)]
//! # dse-server — optimization as a service
//!
//! A dependency-free, in-process service that runs the workspace's
//! optimizer arms (NSGA-II, local, SACGA, MESACGA, steady-state SACGA,
//! cellular, and island, a cellular preset) as queued
//! *jobs* with crash-safe persistence, streaming progress and per-job
//! health, exposed over a line-oriented TCP protocol by the `dse_serve`
//! bench binary.
//!
//! * [`spec`] — [`JobSpec`]/[`JobId`]: problem + algorithm arm + seed +
//!   service policy, round-tripping through one canonical text line
//!   whose FNV-1a hash is the job's identity;
//! * [`queue`] — the bounded priority [`JobQueue`] feeding the worker
//!   pool (built on `engine::pool`), with FIFO round-robin among equal
//!   priorities so preempted jobs re-enter fairly;
//! * [`store`] — the crash-safe [`JobStore`]: per-job directories of
//!   atomically-rewritten spec/state/checkpoint files plus an
//!   append-healed `events.jsonl`, so a killed daemon restarts, rescans
//!   and resumes every in-flight job bit-identically;
//! * [`hub`] — the per-job [`ProgressHub`] ring that late subscribers
//!   replay and live subscribers follow;
//! * [`server`] — the [`Server`] tying it together: cooperative
//!   preemption at generation-slice boundaries, per-tenant
//!   [`SharedCache`](engine::SharedCache) pools with exact per-job hit
//!   attribution, and watchdog-driven health
//!   (`healthy`/`stalled`/`faulty`/`done`/`failed`);
//! * [`protocol`] — the text protocol
//!   (`submit`/`status`/`health`/`list`/`stream`/`cancel`/`shutdown`).
//!
//! ## Example
//!
//! ```
//! use dse_server::{AlgoSpec, JobSpec, ProblemSpec, Server, ServerConfig};
//!
//! # fn main() -> Result<(), dse_server::ServerError> {
//! let root = std::env::temp_dir().join(format!("dse-server-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&root);
//! let server = Server::open(&root, ServerConfig::new())?;
//! let spec = JobSpec::new(
//!     "doc",
//!     ProblemSpec::Schaffer,
//!     AlgoSpec::Sacga { pop: 16, gens: 6, parts: 4 },
//!     42,
//! )
//! .slice(2); // suspend/resume every 2 generations
//! let id = server.submit(spec)?;
//! server.run_until_idle()?;
//! let view = server.status(id)?;
//! assert_eq!(view.generations, 6);
//! assert!(server.store().read_outcome(id).is_some());
//! # let _ = std::fs::remove_dir_all(&root);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod hub;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod spec;
pub mod store;

pub use error::ServerError;
pub use hub::{HubPoll, ProgressHub};
pub use queue::{JobQueue, PopMode};
pub use server::{JobView, Server, ServerConfig};
pub use spec::{AlgoSpec, JobId, JobSpec, ProblemSpec};
pub use store::{JobHealth, JobState, JobStatus, JobStore};
