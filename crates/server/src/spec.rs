//! Job specifications: what to optimize, with which algorithm arm, under
//! which seed, budget and service policy — plus the deterministic
//! [`JobId`] derived from the canonical spec text.
//!
//! A spec round-trips through one canonical line:
//!
//! ```text
//! job v1 name=demo tenant=none problem=schaffer algo=sacga:pop=16,gens=10,parts=4 \
//!     seed=42 priority=0 slice=0 stall=0 fault=none inject=0 screen=0
//! ```
//!
//! (shown wrapped; the wire format is a single line). The [`JobId`] is
//! the FNV-1a 64-bit hash of that canonical line, so resubmitting the
//! identical spec is detected as a duplicate — vary `name=` to rerun.
//!
//! Specs arrive from outside the process, so parsing rejects unknown
//! and repeated keys, and validation caps every size a job allocates
//! by: [`MAX_ZDT_DIMENSION`], [`MAX_POPULATION`] and
//! [`MAX_GENERATIONS`].

use std::fmt;

use crate::error::ServerError;
use analog_circuits::surrogate::{drivable_screen, ScreenThresholds};
use analog_circuits::{DrivableLoadProblem, Spec};
use engine::{EngineMetrics, FaultPlan, FaultPolicy, SharedCache, SurrogateScreen};
use moea::nsga2::{Nsga2, Nsga2Config};
use moea::problems::{BinhKorn, Constr, Schaffer, Srinivas, Tanaka, Zdt1, Zdt2, Zdt3};
use moea::{EngineSetup, Evaluation, Problem};
use sacga::local::LocalCompetitionGaBuilder;
use sacga::{
    CellularConfig, CellularGa, DynOptimizer, IslandConfig, IslandGa, Mesacga, MesacgaConfig,
    Sacga, SacgaConfig, SteadyConfig, SteadySacga, Topology,
};

/// Largest ZDT dimension a job may ask for.
pub const MAX_ZDT_DIMENSION: usize = 100;

/// Largest population a job may ask for. It also caps the partition
/// count, the steady arm's look-ahead window and the cellular
/// neighborhood radius, which are sized like a population.
pub const MAX_POPULATION: usize = 10_000;

/// Largest generation budget a job may ask for (for MESACGA, its total
/// phase span).
pub const MAX_GENERATIONS: usize = 100_000;

/// Deterministic job identifier: FNV-1a 64 of the canonical spec line,
/// printed as 16 lower-case hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// Parses the 16-hex-digit form produced by `Display`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InvalidSpec`] when `s` is not exactly 16
    /// hex digits.
    pub fn parse(s: &str) -> Result<JobId, ServerError> {
        if s.len() != 16 {
            return Err(ServerError::InvalidSpec(format!(
                "job id must be 16 hex digits, got {s:?}"
            )));
        }
        u64::from_str_radix(s, 16)
            .map(JobId)
            .map_err(|_| ServerError::InvalidSpec(format!("job id must be hex, got {s:?}")))
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The benchmark problem a job optimizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemSpec {
    /// Schaffer's two-objective toy problem.
    Schaffer,
    /// The constrained Binh–Korn problem.
    BinhKorn,
    /// The constrained Srinivas problem.
    Srinivas,
    /// The disconnected-front Tanaka problem.
    Tanaka,
    /// The CONSTR problem.
    Constr,
    /// ZDT1 with `n` decision variables.
    Zdt1(usize),
    /// ZDT2 with `n` decision variables.
    Zdt2(usize),
    /// ZDT3 with `n` decision variables.
    Zdt3(usize),
    /// The featured switched-capacitor integrator sizing problem.
    Drivable,
}

impl ProblemSpec {
    /// Parses a problem token (`schaffer`, `zdt1:8`, `drivable`, ...).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InvalidSpec`] for unknown tokens, and for a
    /// ZDT dimension below 2, which the problem cannot be built with, or
    /// above [`MAX_ZDT_DIMENSION`].
    pub fn parse(token: &str) -> Result<Self, ServerError> {
        let (head, arg) = match token.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (token, None),
        };
        let n = |arg: Option<&str>| -> Result<usize, ServerError> {
            let a = arg.ok_or_else(|| {
                ServerError::InvalidSpec(format!("problem {head} needs a dimension, e.g. {head}:8"))
            })?;
            a.parse::<usize>().map_err(|_| {
                ServerError::InvalidSpec(format!("bad dimension {a:?} for problem {head}"))
            })
        };
        let spec = match head {
            "schaffer" => ProblemSpec::Schaffer,
            "binh_korn" => ProblemSpec::BinhKorn,
            "srinivas" => ProblemSpec::Srinivas,
            "tanaka" => ProblemSpec::Tanaka,
            "constr" => ProblemSpec::Constr,
            "zdt1" => ProblemSpec::Zdt1(n(arg)?),
            "zdt2" => ProblemSpec::Zdt2(n(arg)?),
            "zdt3" => ProblemSpec::Zdt3(n(arg)?),
            "drivable" => ProblemSpec::Drivable,
            other => {
                return Err(ServerError::InvalidSpec(format!(
                    "unknown problem {other:?}"
                )))
            }
        };
        spec.check_dimension()?;
        Ok(spec)
    }

    /// Rejects a ZDT dimension below 2, which [`ProblemSpec::build`]
    /// would panic on, or above [`MAX_ZDT_DIMENSION`].
    fn check_dimension(&self) -> Result<(), ServerError> {
        match self {
            ProblemSpec::Zdt1(n) | ProblemSpec::Zdt2(n) | ProblemSpec::Zdt3(n)
                if !(2..=MAX_ZDT_DIMENSION).contains(n) =>
            {
                Err(ServerError::InvalidSpec(format!(
                    "problem {} needs 2 to {MAX_ZDT_DIMENSION} variables",
                    self.token()
                )))
            }
            _ => Ok(()),
        }
    }

    /// The canonical token this spec serializes to.
    pub fn token(&self) -> String {
        match self {
            ProblemSpec::Schaffer => "schaffer".into(),
            ProblemSpec::BinhKorn => "binh_korn".into(),
            ProblemSpec::Srinivas => "srinivas".into(),
            ProblemSpec::Tanaka => "tanaka".into(),
            ProblemSpec::Constr => "constr".into(),
            ProblemSpec::Zdt1(n) => format!("zdt1:{n}"),
            ProblemSpec::Zdt2(n) => format!("zdt2:{n}"),
            ProblemSpec::Zdt3(n) => format!("zdt3:{n}"),
            ProblemSpec::Drivable => "drivable".into(),
        }
    }

    /// Instantiates the problem behind a type-erased handle.
    pub fn build(&self) -> Box<dyn Problem + Send + Sync> {
        match self {
            ProblemSpec::Schaffer => Box::new(Schaffer::new()),
            ProblemSpec::BinhKorn => Box::new(BinhKorn::new()),
            ProblemSpec::Srinivas => Box::new(Srinivas::new()),
            ProblemSpec::Tanaka => Box::new(Tanaka::new()),
            ProblemSpec::Constr => Box::new(Constr::new()),
            ProblemSpec::Zdt1(n) => Box::new(Zdt1::new(*n)),
            ProblemSpec::Zdt2(n) => Box::new(Zdt2::new(*n)),
            ProblemSpec::Zdt3(n) => Box::new(Zdt3::new(*n)),
            ProblemSpec::Drivable => Box::new(DrivableLoadProblem::new(Spec::featured())),
        }
    }

    /// The partition slice range to configure for partitioned algorithms,
    /// when the problem needs one beyond the default.
    fn slice_range(&self) -> Option<(f64, f64)> {
        match self {
            ProblemSpec::Drivable => Some(DrivableLoadProblem::slice_range()),
            _ => None,
        }
    }

    /// The analytic surrogate pre-screen for this problem, when one
    /// exists. Jobs opt in via `screen=1`; screened runs are not
    /// byte-identical to unscreened ones.
    fn surrogate_screen(&self) -> Option<SurrogateScreen<Evaluation>> {
        match self {
            ProblemSpec::Drivable => {
                let problem = DrivableLoadProblem::new(Spec::featured());
                Some(drivable_screen(
                    problem.process(),
                    ScreenThresholds::conservative(),
                ))
            }
            _ => None,
        }
    }
}

/// The algorithm arm a job runs, with its core sizing knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgoSpec {
    /// SACGA: annealed local-to-global competition.
    Sacga {
        /// Population size.
        pop: usize,
        /// Generations to run.
        gens: usize,
        /// Objective-space partitions.
        parts: usize,
    },
    /// The pure local-competition GA of Sec. 4.3.
    Local {
        /// Population size.
        pop: usize,
        /// Generations to run.
        gens: usize,
        /// Objective-space partitions.
        parts: usize,
    },
    /// MESACGA with the paper's expanding-partition cascade over `span`
    /// total generations.
    Mesacga {
        /// Population size.
        pop: usize,
        /// Total generation span across all phases.
        span: usize,
    },
    /// Steady-state SACGA: same algorithm as `Sacga`, driven through the
    /// engine's incremental submission API with no generation barrier.
    Steady {
        /// Population size.
        pop: usize,
        /// Generations to run.
        gens: usize,
        /// Objective-space partitions.
        parts: usize,
        /// Look-ahead window (submitted-but-unmerged offspring).
        window: usize,
        /// Completions folded per merge.
        quantum: usize,
    },
    /// The NSGA-II baseline (purely global competition).
    Nsga2 {
        /// Population size.
        pop: usize,
        /// Generations to run.
        gens: usize,
    },
    /// The island-model GA baseline.
    Island {
        /// Total population size across islands.
        pop: usize,
        /// Generations to run.
        gens: usize,
        /// Island count.
        islands: usize,
    },
    /// The cellular structured-population GA over a neighborhood
    /// topology.
    Cellular {
        /// Total population size across cells.
        pop: usize,
        /// Generations to run.
        gens: usize,
        /// Neighborhood graph family.
        topo: CellTopo,
        /// Cell count (`torus` requires a perfect square, laid out as a
        /// √cells × √cells lattice).
        cells: usize,
        /// Neighborhood radius (ignored by `full`).
        radius: usize,
        /// Generations between migrations.
        interval: usize,
        /// Individuals each cell emits per migration.
        migrants: usize,
        /// Open-mating probability in percent (0–100).
        open: usize,
        /// Forward-bias of open matings in percent (0–100; 50 is
        /// isotropic).
        aniso: usize,
    },
}

/// The neighborhood-graph family of a [`AlgoSpec::Cellular`] arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellTopo {
    /// Cyclic ring lattice.
    Ring,
    /// 2-D torus lattice (cells must be a perfect square).
    Torus,
    /// Fully connected — the island-model degenerate point.
    Full,
    /// Ring plus seeded random chords (Watts–Strogatz style); the chord
    /// seed is the job seed, so the graph is pinned by the spec.
    SmallWorld,
}

impl CellTopo {
    fn parse(token: &str, head: &str) -> Result<Self, ServerError> {
        match token {
            "ring" => Ok(CellTopo::Ring),
            "torus" => Ok(CellTopo::Torus),
            "full" => Ok(CellTopo::Full),
            "smallworld" => Ok(CellTopo::SmallWorld),
            other => Err(ServerError::InvalidSpec(format!(
                "algo {head}: unknown topology {other:?} \
                 (expected ring, torus, full or smallworld)"
            ))),
        }
    }

    fn token(self) -> &'static str {
        match self {
            CellTopo::Ring => "ring",
            CellTopo::Torus => "torus",
            CellTopo::Full => "full",
            CellTopo::SmallWorld => "smallworld",
        }
    }

    /// Realizes the concrete [`Topology`]; `seed` pins small-world
    /// chords.
    fn build(self, cells: usize, radius: usize, seed: u64) -> Result<Topology, ServerError> {
        match self {
            CellTopo::Ring => Ok(Topology::Ring { cells, radius }),
            CellTopo::Torus => {
                let side = (cells as f64).sqrt().round() as usize;
                if side * side != cells {
                    return Err(ServerError::InvalidSpec(format!(
                        "algo cellular: torus needs a perfect-square cell count, got {cells}"
                    )));
                }
                Ok(Topology::Torus {
                    rows: side,
                    cols: side,
                    radius,
                })
            }
            CellTopo::Full => Ok(Topology::FullyConnected { cells }),
            CellTopo::SmallWorld => Ok(Topology::SmallWorld {
                cells,
                radius,
                chords: cells / 4 + 1,
                seed,
            }),
        }
    }
}

/// Parses `key=value` pairs, accepting only the arm's `keys`, each at
/// most once.
fn algo_params(body: &str, head: &str, keys: &[&str]) -> Result<Vec<(String, usize)>, ServerError> {
    let mut out: Vec<(String, usize)> = Vec::new();
    for part in body.split(',') {
        let (k, v) = part.split_once('=').ok_or_else(|| {
            ServerError::InvalidSpec(format!("algo {head}: expected key=value, got {part:?}"))
        })?;
        if !keys.contains(&k) {
            return Err(ServerError::InvalidSpec(format!(
                "algo {head}: unknown key {k:?}"
            )));
        }
        if out.iter().any(|(seen, _)| seen == k) {
            return Err(ServerError::InvalidSpec(format!(
                "algo {head}: repeated key {k:?}"
            )));
        }
        let v = v
            .parse::<usize>()
            .map_err(|_| ServerError::InvalidSpec(format!("algo {head}: bad value in {part:?}")))?;
        out.push((k.to_string(), v));
    }
    Ok(out)
}

fn take(params: &[(String, usize)], key: &str, head: &str) -> Result<usize, ServerError> {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| ServerError::InvalidSpec(format!("algo {head}: missing {key}=")))
}

fn take_or(params: &[(String, usize)], key: &str, default: usize) -> usize {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map_or(default, |(_, v)| *v)
}

impl AlgoSpec {
    /// Parses an algorithm token
    /// (`sacga:pop=16,gens=10,parts=4`, `nsga2:pop=16,gens=10`, ...).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InvalidSpec`] for unknown algorithms,
    /// missing, malformed, unknown or repeated parameters.
    pub fn parse(token: &str) -> Result<Self, ServerError> {
        let (head, body) = token.split_once(':').ok_or_else(|| {
            ServerError::InvalidSpec(format!(
                "algo token {token:?} needs parameters, e.g. sacga:pop=16,gens=10,parts=4"
            ))
        })?;
        // The cellular arm carries one non-numeric parameter (the
        // topology family), peeled off before the key=usize pass.
        let mut topo = None;
        let body = if head == "cellular" {
            let mut numeric = Vec::new();
            for part in body.split(',') {
                if let Some(t) = part.strip_prefix("topo=") {
                    if topo.is_some() {
                        return Err(ServerError::InvalidSpec(format!(
                            "algo {head}: repeated key \"topo\""
                        )));
                    }
                    topo = Some(CellTopo::parse(t, head)?);
                } else {
                    numeric.push(part);
                }
            }
            numeric.join(",")
        } else {
            body.to_string()
        };
        let keys: &[&str] = match head {
            "sacga" | "local" => &["pop", "gens", "parts"],
            "mesacga" => &["pop", "span"],
            "steady" => &["pop", "gens", "parts", "window", "quantum"],
            "nsga2" => &["pop", "gens"],
            "island" => &["pop", "gens", "islands"],
            "cellular" => &[
                "pop", "gens", "cells", "radius", "interval", "migrants", "open", "aniso",
            ],
            other => return Err(ServerError::InvalidSpec(format!("unknown algo {other:?}"))),
        };
        let p = algo_params(&body, head, keys)?;
        match head {
            "sacga" => Ok(AlgoSpec::Sacga {
                pop: take(&p, "pop", head)?,
                gens: take(&p, "gens", head)?,
                parts: take(&p, "parts", head)?,
            }),
            "local" => Ok(AlgoSpec::Local {
                pop: take(&p, "pop", head)?,
                gens: take(&p, "gens", head)?,
                parts: take(&p, "parts", head)?,
            }),
            "mesacga" => Ok(AlgoSpec::Mesacga {
                pop: take(&p, "pop", head)?,
                span: take(&p, "span", head)?,
            }),
            "steady" => {
                let pop = take(&p, "pop", head)?;
                Ok(AlgoSpec::Steady {
                    pop,
                    gens: take(&p, "gens", head)?,
                    parts: take(&p, "parts", head)?,
                    // Same defaults as the config builder; the canonical
                    // token always spells them out.
                    window: take_or(&p, "window", pop),
                    quantum: take_or(&p, "quantum", (pop / 4).max(1)),
                })
            }
            "nsga2" => Ok(AlgoSpec::Nsga2 {
                pop: take(&p, "pop", head)?,
                gens: take(&p, "gens", head)?,
            }),
            "island" => Ok(AlgoSpec::Island {
                pop: take(&p, "pop", head)?,
                gens: take(&p, "gens", head)?,
                islands: take(&p, "islands", head)?,
            }),
            "cellular" => Ok(AlgoSpec::Cellular {
                pop: take(&p, "pop", head)?,
                gens: take(&p, "gens", head)?,
                topo: topo.unwrap_or(CellTopo::Ring),
                cells: take(&p, "cells", head)?,
                // Same defaults as the config builder; the canonical
                // token always spells them out.
                radius: take_or(&p, "radius", 1),
                interval: take_or(&p, "interval", 10),
                migrants: take_or(&p, "migrants", 1),
                open: take_or(&p, "open", 0),
                aniso: take_or(&p, "aniso", 50),
            }),
            _ => unreachable!("the key table above lists every arm"),
        }
    }

    /// The canonical token this spec serializes to.
    pub fn token(&self) -> String {
        match self {
            AlgoSpec::Sacga { pop, gens, parts } => {
                format!("sacga:pop={pop},gens={gens},parts={parts}")
            }
            AlgoSpec::Local { pop, gens, parts } => {
                format!("local:pop={pop},gens={gens},parts={parts}")
            }
            AlgoSpec::Mesacga { pop, span } => format!("mesacga:pop={pop},span={span}"),
            AlgoSpec::Steady {
                pop,
                gens,
                parts,
                window,
                quantum,
            } => {
                format!(
                    "steady:pop={pop},gens={gens},parts={parts},window={window},quantum={quantum}"
                )
            }
            AlgoSpec::Nsga2 { pop, gens } => format!("nsga2:pop={pop},gens={gens}"),
            AlgoSpec::Island { pop, gens, islands } => {
                format!("island:pop={pop},gens={gens},islands={islands}")
            }
            AlgoSpec::Cellular {
                pop,
                gens,
                topo,
                cells,
                radius,
                interval,
                migrants,
                open,
                aniso,
            } => {
                format!(
                    "cellular:pop={pop},gens={gens},topo={},cells={cells},radius={radius},\
                     interval={interval},migrants={migrants},open={open},aniso={aniso}",
                    topo.token()
                )
            }
        }
    }

    /// The bare arm name (`sacga`, `steady`, ...) without parameters —
    /// the value of the `arm` metric label.
    pub fn arm(&self) -> &'static str {
        match self {
            AlgoSpec::Sacga { .. } => "sacga",
            AlgoSpec::Local { .. } => "local",
            AlgoSpec::Mesacga { .. } => "mesacga",
            AlgoSpec::Steady { .. } => "steady",
            AlgoSpec::Nsga2 { .. } => "nsga2",
            AlgoSpec::Island { .. } => "island",
            AlgoSpec::Cellular { .. } => "cellular",
        }
    }

    /// Rejects a population, partition count, look-ahead window or
    /// neighborhood radius above [`MAX_POPULATION`] and a generation
    /// budget above [`MAX_GENERATIONS`]: past them a run's allocations
    /// overflow or exhaust memory. Island and cell counts need no cap of
    /// their own, since the builders require at least 4 members per
    /// cell.
    fn check_sizes(&self) -> Result<(), ServerError> {
        let (pop, gens, sized_like_pop) = match *self {
            AlgoSpec::Sacga { pop, gens, parts } | AlgoSpec::Local { pop, gens, parts } => {
                (pop, gens, parts)
            }
            AlgoSpec::Mesacga { pop, span } => (pop, span, 0),
            AlgoSpec::Steady {
                pop,
                gens,
                parts,
                window,
                ..
            } => (pop, gens, parts.max(window)),
            AlgoSpec::Nsga2 { pop, gens } | AlgoSpec::Island { pop, gens, .. } => (pop, gens, 0),
            AlgoSpec::Cellular {
                pop, gens, radius, ..
            } => (pop, gens, radius),
        };
        if pop.max(sized_like_pop) > MAX_POPULATION || gens > MAX_GENERATIONS {
            return Err(ServerError::InvalidSpec(format!(
                "algo {}: pop, parts, window and radius may not exceed {MAX_POPULATION}, \
                 gens and span {MAX_GENERATIONS}",
                self.token()
            )));
        }
        Ok(())
    }
}

/// A complete job description: problem + algorithm arm + seed + service
/// policy. The canonical text form is one line (see module docs).
/// [`JobSpec::validate`], which parsing and `Server::submit` run, caps
/// its sizes at [`MAX_ZDT_DIMENSION`], [`MAX_POPULATION`] and
/// [`MAX_GENERATIONS`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-chosen job name; part of the identity hash, so reruns of an
    /// identical configuration vary only this.
    pub name: String,
    /// Shared-cache pool this job draws from; `None` means a private
    /// per-run cache.
    pub tenant: Option<String>,
    /// The benchmark problem.
    pub problem: ProblemSpec,
    /// The algorithm arm.
    pub algo: AlgoSpec,
    /// RNG seed; together with the spec this pins the run bit-exactly.
    pub seed: u64,
    /// Queue priority 0–9; higher pops first, FIFO within a level.
    pub priority: u8,
    /// Cooperative-preemption quantum in generations; `0` runs each
    /// job to completion in one slice. Every arm checkpoints at each
    /// slice boundary.
    pub slice: usize,
    /// Stall-detector window in generations, at most
    /// [`MAX_GENERATIONS`]; `0` disables the detector.
    pub stall_window: usize,
    /// Fault-rate alarm threshold (faults per candidate per generation);
    /// `None` disables the alarm.
    pub fault_alarm: Option<f64>,
    /// Rate of injected non-finite evaluations (fault-injection harness
    /// for health testing); `0` injects nothing.
    pub inject_nonfinite: f64,
    /// Opt-in analytic surrogate pre-screen: obviously infeasible
    /// candidates are answered by the surrogate (counted as `screened`)
    /// instead of the full model. Only valid for problems that have a
    /// surrogate; changes results, so it is part of the job identity.
    pub screen: bool,
}

fn valid_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

impl JobSpec {
    /// A spec with the given identity fields and default policy: no
    /// tenant, priority 0, no preemption, watchdogs off, no injection.
    pub fn new(name: impl Into<String>, problem: ProblemSpec, algo: AlgoSpec, seed: u64) -> Self {
        JobSpec {
            name: name.into(),
            tenant: None,
            problem,
            algo,
            seed,
            priority: 0,
            slice: 0,
            stall_window: 0,
            fault_alarm: None,
            inject_nonfinite: 0.0,
            screen: false,
        }
    }

    /// Sets the tenant cache pool.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Sets the queue priority (0–9).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the preemption quantum in generations.
    pub fn slice(mut self, slice: usize) -> Self {
        self.slice = slice;
        self
    }

    /// Enables the stall detector with the given window.
    pub fn stall_window(mut self, window: usize) -> Self {
        self.stall_window = window;
        self
    }

    /// Enables the fault-rate alarm with the given threshold.
    pub fn fault_alarm(mut self, rate: f64) -> Self {
        self.fault_alarm = Some(rate);
        self
    }

    /// Enables non-finite fault injection at the given rate.
    pub fn inject_nonfinite(mut self, rate: f64) -> Self {
        self.inject_nonfinite = rate;
        self
    }

    /// Enables the problem's analytic surrogate pre-screen.
    pub fn screen(mut self) -> Self {
        self.screen = true;
        self
    }

    /// Validates field ranges and cross-field constraints, the size
    /// limits included.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InvalidSpec`] describing the first
    /// violation found.
    pub fn validate(&self) -> Result<(), ServerError> {
        self.problem.check_dimension()?;
        self.algo.check_sizes()?;
        if !valid_token(&self.name) {
            return Err(ServerError::InvalidSpec(format!(
                "name {:?} must be non-empty [A-Za-z0-9._-]",
                self.name
            )));
        }
        if let Some(t) = &self.tenant {
            if !valid_token(t) {
                return Err(ServerError::InvalidSpec(format!(
                    "tenant {t:?} must be non-empty [A-Za-z0-9._-]"
                )));
            }
        }
        if self.priority > 9 {
            return Err(ServerError::InvalidSpec(format!(
                "priority {} out of range 0-9",
                self.priority
            )));
        }
        if self.stall_window > MAX_GENERATIONS {
            return Err(ServerError::InvalidSpec(format!(
                "stall window {} may not exceed {MAX_GENERATIONS}",
                self.stall_window
            )));
        }
        if let Some(rate) = self.fault_alarm {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(ServerError::InvalidSpec(format!(
                    "fault alarm rate {rate} must be finite and >= 0"
                )));
            }
        }
        if !(self.inject_nonfinite.is_finite() && (0.0..=1.0).contains(&self.inject_nonfinite)) {
            return Err(ServerError::InvalidSpec(format!(
                "inject rate {} must be in [0, 1]",
                self.inject_nonfinite
            )));
        }
        if self.screen && self.problem.surrogate_screen().is_none() {
            return Err(ServerError::InvalidSpec(format!(
                "problem {} has no surrogate screen",
                self.problem.token()
            )));
        }
        Ok(())
    }

    /// The canonical single-line text form; hashing this yields
    /// [`JobSpec::id`].
    pub fn canonical(&self) -> String {
        format!(
            "job v1 name={} tenant={} problem={} algo={} seed={} priority={} slice={} stall={} fault={} inject={} screen={}",
            self.name,
            self.tenant.as_deref().unwrap_or("none"),
            self.problem.token(),
            self.algo.token(),
            self.seed,
            self.priority,
            self.slice,
            self.stall_window,
            self.fault_alarm
                .map_or_else(|| "none".to_string(), |r| r.to_string()),
            self.inject_nonfinite,
            u8::from(self.screen),
        )
    }

    /// The deterministic identifier of this spec.
    pub fn id(&self) -> JobId {
        JobId(fnv1a64(&self.canonical()))
    }

    /// Parses the canonical line form.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InvalidSpec`] on malformed input, an
    /// unknown or repeated key, or failed validation.
    pub fn parse(line: &str) -> Result<JobSpec, ServerError> {
        let mut tokens = line.split_whitespace();
        match (tokens.next(), tokens.next()) {
            (Some("job"), Some("v1")) => {}
            _ => {
                return Err(ServerError::InvalidSpec(
                    "spec must start with 'job v1'".into(),
                ))
            }
        }
        let mut name = None;
        let mut tenant = None;
        let mut problem = None;
        let mut algo = None;
        let mut seed = None;
        let mut priority = 0u8;
        let mut slice = 0usize;
        let mut stall = 0usize;
        let mut fault = None;
        let mut inject = 0.0f64;
        let mut screen = false;
        let mut seen = Vec::new();
        for tok in tokens {
            let (k, v) = tok.split_once('=').ok_or_else(|| {
                ServerError::InvalidSpec(format!("expected key=value, got {tok:?}"))
            })?;
            if seen.contains(&k) {
                return Err(ServerError::InvalidSpec(format!("repeated key {k:?}")));
            }
            seen.push(k);
            let bad = |what: &str| ServerError::InvalidSpec(format!("bad {what} value {v:?}"));
            match k {
                "name" => name = Some(v.to_string()),
                "tenant" => tenant = (v != "none").then(|| v.to_string()),
                "problem" => problem = Some(ProblemSpec::parse(v)?),
                "algo" => algo = Some(AlgoSpec::parse(v)?),
                "seed" => seed = Some(v.parse::<u64>().map_err(|_| bad("seed"))?),
                "priority" => priority = v.parse::<u8>().map_err(|_| bad("priority"))?,
                "slice" => slice = v.parse::<usize>().map_err(|_| bad("slice"))?,
                "stall" => stall = v.parse::<usize>().map_err(|_| bad("stall"))?,
                "fault" => {
                    fault = if v == "none" {
                        None
                    } else {
                        Some(v.parse::<f64>().map_err(|_| bad("fault"))?)
                    }
                }
                "inject" => inject = v.parse::<f64>().map_err(|_| bad("inject"))?,
                "screen" => {
                    screen = match v {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("screen")),
                    }
                }
                other => {
                    return Err(ServerError::InvalidSpec(format!("unknown key {other:?}")));
                }
            }
        }
        let missing = |what: &str| ServerError::InvalidSpec(format!("missing {what}="));
        let spec = JobSpec {
            name: name.ok_or_else(|| missing("name"))?,
            tenant,
            problem: problem.ok_or_else(|| missing("problem"))?,
            algo: algo.ok_or_else(|| missing("algo"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            priority,
            slice,
            stall_window: stall,
            fault_alarm: fault,
            inject_nonfinite: inject,
            screen,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The engine setup [`build_optimizer`](JobSpec::build_optimizer)
    /// hands to the arm's builder.
    fn engine_setup(
        &self,
        cache: Option<SharedCache<Evaluation>>,
        metrics: Option<EngineMetrics>,
    ) -> EngineSetup {
        let mut setup = EngineSetup::new();
        if let Some(cache) = cache {
            setup = setup.shared_cache(cache);
        }
        if self.inject_nonfinite > 0.0 {
            setup = setup
                .fault_policy(FaultPolicy::tolerant(3))
                .inject_faults(FaultPlan::seeded(self.seed).nonfinite(self.inject_nonfinite));
        }
        if let Some(screen) = self
            .screen
            .then(|| self.problem.surrogate_screen())
            .flatten()
        {
            setup = setup.surrogate_screen(screen);
        }
        if let Some(metrics) = metrics {
            setup = setup.metrics(metrics);
        }
        setup
    }

    /// Instantiates the optimizer for this job on one engine setup: the
    /// tenant cache (when given), the fault-injection harness (when
    /// `inject_nonfinite > 0`), the surrogate screen (when `screen` is
    /// set) and a live [`EngineMetrics`] bundle (when given; observation
    /// only, results are unchanged). Every arm's builder takes it whole.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InvalidSpec`] when the underlying config
    /// builder rejects the sizing parameters.
    pub fn build_optimizer(
        &self,
        cache: Option<SharedCache<Evaluation>>,
        metrics: Option<EngineMetrics>,
    ) -> Result<Box<dyn DynOptimizer>, ServerError> {
        let cfg_err = |e: moea::OptimizeError| ServerError::InvalidSpec(e.to_string());
        let problem = self.problem.build();
        let setup = self.engine_setup(cache, metrics);
        let slice = self.problem.slice_range();
        match &self.algo {
            AlgoSpec::Sacga { pop, gens, parts } => {
                let mut b = SacgaConfig::builder()
                    .population_size(*pop)
                    .generations(*gens)
                    .partitions(*parts);
                if let Some((lo, hi)) = slice {
                    b = b.slice_range(lo, hi);
                }
                let cfg = b.engine_setup(setup).build().map_err(cfg_err)?;
                Ok(Box::new(Sacga::new(problem, cfg)))
            }
            AlgoSpec::Local { pop, gens, parts } => {
                let mut b = LocalCompetitionGaBuilder::new()
                    .population_size(*pop)
                    .generations(*gens)
                    .partitions(*parts);
                if let Some((lo, hi)) = slice {
                    b = b.slice_range(lo, hi);
                }
                Ok(Box::new(
                    b.engine_setup(setup).build(problem).map_err(cfg_err)?,
                ))
            }
            AlgoSpec::Mesacga { pop, span } => {
                let mut b = MesacgaConfig::builder()
                    .population_size(*pop)
                    .paper_phases(*span);
                if let Some((lo, hi)) = slice {
                    b = b.slice_range(lo, hi);
                }
                let cfg = b.engine_setup(setup).build().map_err(cfg_err)?;
                Ok(Box::new(Mesacga::new(problem, cfg)))
            }
            AlgoSpec::Steady {
                pop,
                gens,
                parts,
                window,
                quantum,
            } => {
                let mut b = SteadyConfig::builder()
                    .population_size(*pop)
                    .generations(*gens)
                    .partitions(*parts)
                    .window(*window)
                    .quantum(*quantum);
                if let Some((lo, hi)) = slice {
                    b = b.slice_range(lo, hi);
                }
                let cfg = b.engine_setup(setup).build().map_err(cfg_err)?;
                Ok(Box::new(SteadySacga::new(problem, cfg)))
            }
            AlgoSpec::Nsga2 { pop, gens } => {
                let cfg = Nsga2Config::builder()
                    .population_size(*pop)
                    .generations(*gens)
                    .engine_setup(setup)
                    .build()
                    .map_err(cfg_err)?;
                Ok(Box::new(Nsga2::new(problem, cfg)))
            }
            AlgoSpec::Island { pop, gens, islands } => {
                let cfg = IslandConfig::builder()
                    .population_size(*pop)
                    .generations(*gens)
                    .islands(*islands)
                    .engine_setup(setup)
                    .build()
                    .map_err(cfg_err)?;
                Ok(Box::new(IslandGa::new(problem, cfg)))
            }
            AlgoSpec::Cellular {
                pop,
                gens,
                topo,
                cells,
                radius,
                interval,
                migrants,
                open,
                aniso,
            } => {
                let topology = topo.build(*cells, *radius, self.seed)?;
                #[allow(clippy::cast_precision_loss)]
                let cfg = CellularConfig::builder()
                    .population_size(*pop)
                    .generations(*gens)
                    .topology(topology)
                    .migration_interval(*interval)
                    .migrants(*migrants)
                    .openness(*open as f64 / 100.0)
                    .anisotropy(*aniso as f64 / 100.0)
                    .engine_setup(setup)
                    .build()
                    .map_err(cfg_err)?;
                Ok(Box::new(CellularGa::new(problem, cfg)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> JobSpec {
        JobSpec::new(
            "demo",
            ProblemSpec::Schaffer,
            AlgoSpec::Sacga {
                pop: 16,
                gens: 10,
                parts: 4,
            },
            42,
        )
    }

    #[test]
    fn canonical_round_trips() {
        let spec = demo()
            .tenant("acme")
            .priority(3)
            .slice(2)
            .stall_window(5)
            .fault_alarm(0.25)
            .inject_nonfinite(0.1);
        let line = spec.canonical();
        let back = JobSpec::parse(&line).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.id(), spec.id());
        assert_eq!(back.canonical(), line);
    }

    #[test]
    fn id_is_stable_and_name_sensitive() {
        let a = demo();
        let mut b = demo();
        assert_eq!(a.id(), b.id());
        b.name = "demo2".into();
        assert_ne!(a.id(), b.id());
        // Pinned: the id derives only from the canonical text.
        assert_eq!(a.id().to_string().len(), 16);
        assert_eq!(JobId::parse(&a.id().to_string()).unwrap(), a.id());
    }

    #[test]
    fn screen_round_trips_and_is_identity_relevant() {
        let plain = JobSpec::new(
            "s",
            ProblemSpec::Drivable,
            AlgoSpec::Sacga {
                pop: 16,
                gens: 4,
                parts: 4,
            },
            7,
        );
        let screened = plain.clone().screen();
        assert_ne!(plain.id(), screened.id(), "screening changes results");
        let back = JobSpec::parse(&screened.canonical()).unwrap();
        assert_eq!(back, screened);
        // Legacy lines without screen= parse as unscreened.
        let legacy = plain.canonical().replace(" screen=0", "");
        assert!(!JobSpec::parse(&legacy).unwrap().screen);
    }

    #[test]
    fn screen_rejected_without_a_surrogate() {
        let no_surrogate = demo().screen(); // schaffer has no surrogate
        assert!(matches!(
            no_surrogate.validate(),
            Err(ServerError::InvalidSpec(_))
        ));
    }

    #[test]
    fn steady_arm_defaults_window_and_quantum() {
        let parsed = AlgoSpec::parse("steady:pop=16,gens=10,parts=4").unwrap();
        assert_eq!(
            parsed,
            AlgoSpec::Steady {
                pop: 16,
                gens: 10,
                parts: 4,
                window: 16,
                quantum: 4,
            }
        );
        // The canonical token always spells the defaults out and
        // round-trips.
        assert_eq!(
            parsed.token(),
            "steady:pop=16,gens=10,parts=4,window=16,quantum=4"
        );
        assert_eq!(AlgoSpec::parse(&parsed.token()).unwrap(), parsed);
    }

    #[test]
    fn cellular_arm_defaults_and_round_trips() {
        let parsed = AlgoSpec::parse("cellular:pop=64,gens=12,cells=8").unwrap();
        assert_eq!(
            parsed,
            AlgoSpec::Cellular {
                pop: 64,
                gens: 12,
                topo: CellTopo::Ring,
                cells: 8,
                radius: 1,
                interval: 10,
                migrants: 1,
                open: 0,
                aniso: 50,
            }
        );
        // The canonical token always spells the defaults out and
        // round-trips, with the topology word in a fixed position.
        assert_eq!(
            parsed.token(),
            "cellular:pop=64,gens=12,topo=ring,cells=8,radius=1,\
             interval=10,migrants=1,open=0,aniso=50"
        );
        assert_eq!(AlgoSpec::parse(&parsed.token()).unwrap(), parsed);
        // Non-ring families parse; garbage and non-square tori do not.
        let torus =
            AlgoSpec::parse("cellular:pop=64,gens=12,topo=torus,cells=16,interval=4").unwrap();
        assert_eq!(AlgoSpec::parse(&torus.token()).unwrap(), torus);
        assert!(AlgoSpec::parse("cellular:pop=64,gens=12,topo=moebius,cells=8").is_err());
        let bad_torus = AlgoSpec::parse("cellular:pop=60,gens=12,topo=torus,cells=15").unwrap();
        let spec = JobSpec::new("t", ProblemSpec::Schaffer, bad_torus, 7);
        assert!(spec.build_optimizer(None, None).is_err());
    }

    #[test]
    fn island_and_local_jobs_take_a_tenant_cache_and_a_screen() {
        for algo in [
            AlgoSpec::Island {
                pop: 32,
                gens: 4,
                islands: 2,
            },
            AlgoSpec::Local {
                pop: 16,
                gens: 4,
                parts: 4,
            },
        ] {
            let spec = JobSpec::new("t", ProblemSpec::Drivable, algo.clone(), 7)
                .tenant("acme")
                .screen();
            let parsed = JobSpec::parse(&spec.canonical()).unwrap();
            assert_eq!(parsed, spec, "{}", algo.token());
            let cache = SharedCache::with_capacity(4096);
            let run = |cache: &SharedCache<Evaluation>| {
                spec.build_optimizer(Some(cache.clone()), None)
                    .unwrap()
                    .run_dyn(7)
                    .unwrap()
            };
            let first = run(&cache);
            assert!(first.stats.screened > 0, "{}", algo.token());
            let second = run(&cache);
            assert_eq!(second.front_objectives(), first.front_objectives());
            assert!(
                second.stats.cache_hits > first.stats.cache_hits,
                "{}: the second tenant run reads the first one's entries",
                algo.token()
            );
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JobSpec::parse("submit stuff").is_err());
        assert!(JobSpec::parse("job v1 name=x").is_err()); // missing problem/algo/seed
        assert!(JobSpec::parse(
            "job v1 name=x problem=nope algo=sacga:pop=1,gens=1,parts=1 seed=0"
        )
        .is_err());
        assert!(JobSpec::parse("job v1 name=x problem=schaffer algo=sacga:pop=1 seed=0").is_err());
        // Unknown keys (a typo, another arm's key) and repeated keys.
        for token in [
            "steady:pop=16,gens=10,parts=4,windw=8",
            "nsga2:pop=16,gens=10,parts=4",
            "cellular:pop=32,gens=4,cells=4,window=8",
            "sacga:pop=16,pop=32,gens=10,parts=4",
            "steady:pop=16,gens=10,parts=4,window=8,window=16",
            "cellular:pop=32,gens=4,topo=ring,topo=torus,cells=4",
        ] {
            assert!(
                matches!(AlgoSpec::parse(token), Err(ServerError::InvalidSpec(_))),
                "{token}"
            );
        }
        let line = demo().canonical();
        for extra in ["name=b", "seed=43", "priority=1", "tenant=acme", "screen=0"] {
            let repeated = format!("{line} {extra}");
            assert!(
                matches!(JobSpec::parse(&repeated), Err(ServerError::InvalidSpec(_))),
                "{repeated}"
            );
        }
    }

    #[test]
    fn zdt_dimensions_below_two_are_rejected() {
        for token in ["zdt1:1", "zdt2:0", "zdt3:1"] {
            assert!(
                matches!(ProblemSpec::parse(token), Err(ServerError::InvalidSpec(_))),
                "{token}"
            );
        }
        assert_eq!(ProblemSpec::parse("zdt3:2").unwrap(), ProblemSpec::Zdt3(2));
        let spec = JobSpec::new(
            "z",
            ProblemSpec::Zdt1(1),
            AlgoSpec::Nsga2 { pop: 8, gens: 2 },
            0,
        );
        assert!(spec.validate().is_err());
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        for token in ["zdt1:101", "zdt2:18446744073709551615", "zdt3:4294967296"] {
            assert!(
                matches!(ProblemSpec::parse(token), Err(ServerError::InvalidSpec(_))),
                "{token}"
            );
        }
        assert_eq!(
            ProblemSpec::parse("zdt1:100").unwrap(),
            ProblemSpec::Zdt1(MAX_ZDT_DIMENSION)
        );
        for token in [
            "nsga2:pop=4,gens=1152921504606846976",
            "sacga:pop=10002,gens=2,parts=2",
            "local:pop=8,gens=2,parts=18446744073709551615",
            "mesacga:pop=8,span=100001",
            "steady:pop=8,gens=2,parts=2,window=10001",
            "island:pop=8,gens=100001,islands=2",
            "cellular:pop=32,gens=2,cells=4,radius=9223372036854775808",
        ] {
            let spec = JobSpec::new(
                "big",
                ProblemSpec::Schaffer,
                AlgoSpec::parse(token).unwrap(),
                0,
            );
            assert!(
                matches!(spec.validate(), Err(ServerError::InvalidSpec(_))),
                "{token}"
            );
            assert!(JobSpec::parse(&spec.canonical()).is_err(), "{token}");
        }
        let stall = "job v1 name=stall problem=schaffer algo=sacga:pop=16,gens=6,parts=4 \
                     seed=7 stall=18446744073709551615";
        assert!(matches!(
            JobSpec::parse(stall),
            Err(ServerError::InvalidSpec(_))
        ));
        let at_limit = AlgoSpec::parse("steady:pop=10000,gens=100000,parts=10000,window=10000");
        let spec = JobSpec::new("max", ProblemSpec::Zdt1(100), at_limit.unwrap(), 0)
            .stall_window(MAX_GENERATIONS);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn every_arm_builds_an_optimizer() {
        let arms = [
            AlgoSpec::Sacga {
                pop: 16,
                gens: 4,
                parts: 4,
            },
            AlgoSpec::Local {
                pop: 16,
                gens: 4,
                parts: 4,
            },
            AlgoSpec::Mesacga { pop: 16, span: 12 },
            AlgoSpec::Steady {
                pop: 16,
                gens: 4,
                parts: 4,
                window: 20,
                quantum: 4,
            },
            AlgoSpec::Nsga2 { pop: 16, gens: 4 },
            AlgoSpec::Island {
                pop: 32,
                gens: 4,
                islands: 2,
            },
            AlgoSpec::Cellular {
                pop: 32,
                gens: 4,
                topo: CellTopo::SmallWorld,
                cells: 4,
                radius: 1,
                interval: 2,
                migrants: 1,
                open: 25,
                aniso: 50,
            },
        ];
        for algo in arms {
            let spec = JobSpec::new("t", ProblemSpec::Schaffer, algo.clone(), 7);
            let opt = spec.build_optimizer(None, None).unwrap();
            let outcome = opt.run_dyn(7).unwrap();
            assert!(!outcome.front.is_empty(), "{}", algo.token());

            // The whole engine setup reaches the engine: the second run
            // reads every candidate from the first run's cache, and both
            // runs count into the one metrics bundle.
            let cache = SharedCache::with_capacity(1 << 16);
            let registry = engine::MetricsRegistry::new();
            let metrics = EngineMetrics::register(&registry, &[("arm", algo.arm())]);
            let run = || {
                spec.build_optimizer(Some(cache.clone()), Some(metrics.clone()))
                    .unwrap()
                    .run_dyn(7)
                    .unwrap()
            };
            let (first, second) = (run(), run());
            assert_eq!(first.front_objectives(), outcome.front_objectives());
            assert!(first.stats.evaluations > 0, "{}", algo.token());
            assert_eq!(second.stats.evaluations, 0, "{}", algo.token());
            assert_eq!(
                second.stats.cache_hits,
                second.stats.candidates,
                "{}",
                algo.token()
            );
            assert_eq!(
                metrics.candidates.get(),
                first.stats.candidates + second.stats.candidates,
                "{}",
                algo.token()
            );
            assert_eq!(
                metrics.candidates.get(),
                metrics.evaluations.get() + metrics.cache_hits.get() + metrics.screened.get(),
                "{}",
                algo.token()
            );
        }
    }

    #[test]
    fn metered_build_is_bit_identical_and_balances() {
        let registry = engine::MetricsRegistry::new();
        let spec = demo();
        let labels = [("tenant", "demo"), ("arm", spec.algo.arm())];
        let metrics = EngineMetrics::register(&registry, &labels);
        let bare = spec
            .build_optimizer(None, None)
            .unwrap()
            .run_dyn(7)
            .unwrap();
        let metered = spec
            .build_optimizer(None, Some(metrics.clone()))
            .unwrap()
            .run_dyn(7)
            .unwrap();
        assert_eq!(bare.front_objectives(), metered.front_objectives());
        assert_eq!(metrics.candidates.get(), metered.stats.candidates);
        assert_eq!(
            metrics.candidates.get(),
            metrics.evaluations.get() + metrics.cache_hits.get() + metrics.screened.get()
        );
    }
}
