//! `dse_benchmark` — the repository benchmark: four workloads, each run
//! for a fixed time, with every output checked and every metric printed
//! with its unit. See `benchmark/README.md`.
//!
//! ```text
//! dse_benchmark [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! dse_benchmark [run] --workload all|NAME --runs R --out FILE [--label TEXT] [...]
//! dse_benchmark compare BASE.jsonl NEW.jsonl
//! ```
//!
//! A single run prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of `BENCHMARK.json` untraced, its per-layer metrics with `--trace 1`.
//! With `--runs` or `--workload all`, each run is a child process and
//! every result is appended, tagged with its workload and seed, to a
//! JSON-lines file that `compare` reads.

mod calibrate;
mod checks;
mod compare;
mod ga;
mod json;
mod layers;
mod service;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use engine::MetricsRegistry;
use moea::Problem as _;

use checks::{front_digest, Checks};
use ga::GaKind;
use json::Json;
use layers::{Encoding, Metrics};
use stats::median;
use trace::{SpanLog, NO_PARENT};

/// The benchmark definition: workloads, metrics, bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Per workload: the recorded seed and the known-answer front digest.
const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Set-ups repeated after each round; `setup_s` is the median of all of
/// them. Spreading the set-ups over the run, instead of making them all
/// at the start, samples the host's speed as often as the rounds do.
const SETUP_REPS_PER_ROUND: usize = 11;
/// Rounds after which a GA run reads its peak memory. Later rounds add
/// heap fragmentation, so a run that fits more rounds in its time would
/// otherwise report more memory for the same code.
const RSS_AFTER_ROUNDS: u64 = 3;
/// Generations of the known-answer runs.
const KAT_GENS: usize = 6;
/// Shortest host-speed calibration around a measured operation.
const CALIBRATION: Duration = Duration::from_millis(100);
/// Longest stretch of measured work between two calibrations (checked
/// at the end of each arm).
const CALIBRATE_EVERY: Duration = Duration::from_secs(1);
/// Length of the server-layer probe in traced runs of other workloads.
const SERVER_PROBE_SECONDS: f64 = 2.0;

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of a run's `index`-th operation.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ga(GaKind),
    Service,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Ga(GaKind::Fig05),
        Workload::Ga(GaKind::Integrator),
        Workload::Ga(GaKind::Engine),
        Workload::Service,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Ga(GaKind::Fig05) => "fig05",
            Workload::Ga(GaKind::Integrator) => "integrator",
            Workload::Ga(GaKind::Engine) => "engine",
            Workload::Service => "service",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Bench {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Bench {
    pub fn parse(text: &str) -> Result<Bench, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: missing {key}"))?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: m.str_field("name")?.to_string(),
                        unit: m.str_field("unit")?.to_string(),
                        lower_is_better: m.str_field("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: missing workloads")?
            .iter()
            .map(|w| w.str_field("name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        Ok(Bench {
            run_seconds: doc.num_field("run_seconds")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The recorded seed and known-answer digest of `workload`.
fn expected(workload: Workload) -> Result<(u64, u64), String> {
    let doc = Json::parse(EXPECTED_JSON).map_err(|e| format!("expected.json: {e}"))?;
    let entry = doc
        .get(workload.name())
        .ok_or_else(|| format!("expected.json has no entry for {}", workload.name()))?;
    let seed = entry.num_field("seed")? as u64;
    let digest = u64::from_str_radix(entry.str_field("digest")?, 16)
        .map_err(|e| format!("expected.json digest for {}: {e}", workload.name()))?;
    Ok((seed, digest))
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    label: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        runs: 1,
        out: None,
        spans: None,
        label: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| v.parse::<f64>().map_err(|_| format!("bad {flag} {v:?}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => a.seconds = Some(number(value()?)?).filter(|s| *s > 0.0),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--runs" => a.runs = number(value()?)? as usize,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--label" => a.label = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run_main(&args[1..]),
        _ => run_main(&args),
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("dse_benchmark: {e}");
        2
    }));
}

fn run_main(args: &[String]) -> Result<i32, String> {
    let args = parse_args(args)?;
    let bench = Bench::parse(BENCHMARK_JSON)?;
    for w in &bench.workloads {
        Workload::parse(w)?;
    }
    let seconds = args.seconds.unwrap_or(bench.run_seconds);
    let name = args.workload.as_deref().unwrap_or("all");
    if name != "all" && args.runs == 1 && args.out.is_none() {
        return run_single(&bench, Workload::parse(name)?, &args, seconds);
    }
    let workloads = if name == "all" {
        bench.workloads.clone()
    } else {
        vec![Workload::parse(name)?.name().to_string()]
    };
    run_children(&args, &workloads, seconds)
}

/// Runs one workload in this process and prints its result line.
fn run_single(bench: &Bench, workload: Workload, args: &Args, seconds: f64) -> Result<i32, String> {
    let (recorded_seed, digest) = expected(workload)?;
    let seed = args.seed.unwrap_or(recorded_seed);
    let run = Run {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        kat: (recorded_seed, digest),
    };
    let (checks, metrics) = match (workload, args.trace) {
        (Workload::Ga(kind), false) => run_ga(kind, &run)?,
        (Workload::Service, false) => run_service(&run)?,
        (_, true) => {
            let log = SpanLog::new();
            let result = trace_run(workload, &run, &log)?;
            for (name, (count, total, own)) in log.summary() {
                eprintln!(
                    "span {name:<28} n={count:<8} total={total:>10.1} ms self={own:>10.1} ms"
                );
            }
            if let Some(path) = &args.spans {
                log.write_jsonl(path)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            result
        }
    };
    let defs = if args.trace {
        &bench.per_layer
    } else {
        &bench.end_to_end
    };
    let line = result_line(&checks, &metrics, defs)?;
    for e in checks.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    for (name, value) in &metrics {
        eprintln!("{:<48} {value}", format!("{}.{name}", workload.name()));
    }
    println!("{line}");
    Ok(if checks.ok() { 0 } else { 1 })
}

/// The result object, with exactly the metrics `defs` names.
fn result_line(checks: &Checks, metrics: &Metrics, defs: &[MetricDef]) -> Result<Json, String> {
    let mut out = Vec::new();
    for def in defs {
        let value = *metrics
            .get(&def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", def.name));
        }
        out.push((
            def.name.clone(),
            Json::object([
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.clone())),
            ]),
        ));
    }
    if let Some(extra) = metrics.keys().find(|k| !defs.iter().any(|d| &d.name == *k)) {
        return Err(format!("metric {extra} is not in BENCHMARK.json"));
    }
    Ok(Json::object([
        ("correct", Json::Bool(checks.ok())),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", Json::object(out)),
    ]))
}

struct Run {
    seed: u64,
    seconds: Duration,
    /// Recorded seed and expected digest of the known-answer check.
    kat: (u64, u64),
}

/// The peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Compares a known-answer digest with the recorded one.
fn kat_problems(what: &str, digest: Result<u64, String>, expected: u64) -> Vec<String> {
    match digest {
        Ok(d) if d == expected => Vec::new(),
        Ok(d) => vec![format!(
            "{what} front digest {d:016x}, expected {expected:016x}"
        )],
        Err(e) => vec![e],
    }
}

/// Every arm of `kind` at `KAT_GENS` on the recorded seed. For `fig05`
/// the 8-partition arm must also match `dse_bench::sacga_ga`, the
/// figure harness's own configuration.
fn ga_kat(kind: GaKind, problem: &ga::DynProblem, seed: u64) -> Result<u64, String> {
    let mut digests = Vec::new();
    for &arm in kind.arms() {
        let run = ga::run_arm(
            kind,
            arm,
            KAT_GENS,
            problem,
            ga::base_setup(),
            seed,
            &mut sacga::NullSink,
        );
        if !run.problems.is_empty() {
            return Err(format!("known-answer {arm}: {:?}", run.problems));
        }
        if run.front_size == 0 {
            return Err(format!("known-answer {arm}: empty front"));
        }
        digests.push((arm, run.digest));
    }
    if kind == GaKind::Fig05 {
        let harness = dse_bench::sacga_ga(&dse_bench::paper_problem(), 8, KAT_GENS)
            .run_seeded(seed)
            .map_err(|e| format!("harness run: {e}"))?;
        let harness = front_digest([harness.front_objectives().as_slice()]);
        if digests
            .iter()
            .any(|&(arm, d)| arm == "sacga8" && d != harness)
        {
            return Err("the fig05 sacga8 arm differs from dse_bench::sacga_ga".into());
        }
    }
    Ok(digests.iter().fold(0, |h, &(_, d)| h.rotate_left(5) ^ d))
}

/// Checks that hold for every round of `kind`.
fn round_problems(kind: GaKind, round: &ga::Round) -> Vec<String> {
    let mut problems = round.problems();
    // Seeded runs are bit-identical across worker counts.
    if kind == GaKind::Engine {
        let digest = |name| round.arms.iter().find(|a| a.arm == name).map(|a| a.digest);
        if digest("sacga8") != digest("sacga8x2") {
            problems.push("sacga8 on 2 workers differs from serial sacga8".into());
        }
    }
    problems
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_ga(kind: GaKind, run: &Run) -> Result<(Checks, Metrics), String> {
    let problem = ga::setup(kind)?;
    let mut checks = Checks::default();
    // The known-answer run goes first: it runs the same code as the
    // rounds, so it also warms them up.
    let (kat_seed, kat_digest) = run.kat;
    checks.record(
        "known-answer run",
        kat_problems(
            "known-answer",
            ga_kat(kind, &*problem, kat_seed),
            kat_digest,
        ),
    );
    let mut latencies = Vec::new();
    let mut raw = Vec::new();
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let mut peak_rss = None;
    let mut cal = calibrate::pass_time(CALIBRATION);
    let start = Instant::now();
    for i in 0.. {
        if i > 0 && start.elapsed() >= run.seconds {
            break;
        }
        // Calibrate after every `CALIBRATE_EVERY` of measured work and at
        // the end of the round, each time for a tenth of the work since
        // the last calibration, so the host speed is sampled on the
        // work's own time scale.
        let mut scaled_ms = 0.0;
        let mut pending = Duration::ZERO;
        let mut calibrate_pending = |pending: &mut Duration| {
            let next = calibrate::pass_time(CALIBRATION.max(*pending / 10));
            scaled_ms += ms(*pending) * calibrate::factor(cal, next);
            cal = next;
            *pending = Duration::ZERO;
        };
        let round = ga::round(kind, &*problem, sub_seed(run.seed, i), |arm_wall| {
            pending += arm_wall;
            if pending >= CALIBRATE_EVERY {
                calibrate_pending(&mut pending);
            }
        });
        if !pending.is_zero() {
            calibrate_pending(&mut pending);
        }
        checks.record(&format!("round {i}"), round_problems(kind, &round));
        // The set-ups follow a calibration, which scales them.
        for _ in 0..SETUP_REPS_PER_ROUND {
            let start = Instant::now();
            std::hint::black_box(ga::setup(kind)?);
            let took = start.elapsed().as_secs_f64();
            setup_s.push(took * calibrate::factor(cal, cal));
            raw_setup_s.push(took);
        }
        latencies.push(scaled_ms);
        raw.push(ms(round.wall));
        if i + 1 == RSS_AFTER_ROUNDS {
            peak_rss = Some(peak_rss_mb()?);
        }
        let arms: Vec<String> = round
            .arms
            .iter()
            .map(|a| format!("{} {:.0} ms", a.arm, ms(a.wall)))
            .collect();
        eprintln!(
            "round {i}: {:.0} ms, {scaled_ms:.0} ms at reference speed ({})",
            ms(round.wall),
            arms.join(", ")
        );
    }
    eprintln!(
        "unscaled medians: set-up {:.6} s, round {:.1} ms",
        median(&raw_setup_s),
        median(&raw)
    );
    let mut m = Metrics::new();
    m.insert("setup_s".into(), median(&setup_s));
    m.insert("latency_p50_ms".into(), median(&latencies));
    m.insert("peak_rss_mb".into(), peak_rss.map_or_else(peak_rss_mb, Ok)?);
    Ok((checks, m))
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the shared parent once it is empty.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_service(run: &Run) -> Result<(Checks, Metrics), String> {
    let scratch = Scratch(service::scratch_dir("service"));
    let result = service::run(&service::Plan {
        mix: service::Mix::Full,
        seed: run.seed,
        seconds: run.seconds.as_secs_f64(),
        traced: false,
        kat: Some(run.kat),
        log: None,
        scratch: &scratch.0,
    })?;
    eprintln!(
        "unscaled medians: set-up {:.6} s, job latency {:.1} ms ({} set-ups)",
        median(&result.setup_s),
        1e3 * median(&result.job_latency_s),
        result.setup_s.len()
    );
    let mut m = Metrics::new();
    m.insert("setup_s".into(), median(&result.setup_ref_s));
    m.insert(
        "latency_p50_ms".into(),
        1e3 * median(&result.job_latency_ref_s),
    );
    m.insert("peak_rss_mb".into(), peak_rss_mb()?);
    Ok((result.checks, m))
}

/// The `--trace 1` run: the workload's operations, each run untraced
/// and then traced on the same seed, followed by the layer probes.
fn trace_run(workload: Workload, run: &Run, log: &SpanLog) -> Result<(Checks, Metrics), String> {
    let root = log.begin(workload.name(), NO_PARENT);
    let scratch = Scratch(service::scratch_dir(workload.name()));
    let mut m = Metrics::new();
    let mut checks;
    let samples;
    let events;
    let canonicalizer;
    let speedup;
    let server_run;
    match workload {
        Workload::Ga(kind) => {
            let problem = ga::setup(kind)?;
            let registry = MetricsRegistry::new();
            let mut traced = ga::RoundTrace::default();
            let mut overhead = Vec::new();
            checks = Checks::default();
            let start = Instant::now();
            for i in 0.. {
                if i > 0 && start.elapsed() >= run.seconds {
                    break;
                }
                let seed = sub_seed(run.seed, i);
                let plain = ga::round(kind, &*problem, seed, |_| {});
                let span = log.begin("round", root);
                let round =
                    ga::traced_round(kind, &*problem, seed, log, span, &registry, &mut traced);
                log.end(span);
                let mut problems = round_problems(kind, &plain);
                problems.extend(round_problems(kind, &round));
                if round.digest() != plain.digest() {
                    problems.push("the traced round differs from the untraced one".into());
                }
                checks.record(&format!("round {i}"), problems);
                overhead.push(ms(round.wall) - ms(plain.wall));
            }
            m.insert("trace.overhead_ms".into(), median(&overhead));
            layers::engine_counters(&registry.render_text(), &mut m);
            layers::stages(&traced.sink.stages, &mut m);
            let encoding = match kind {
                GaKind::Integrator => Encoding::Integrator,
                _ => Encoding::Drivable,
            };
            if kind == GaKind::Engine {
                let designs = layers::reference_designs(run.seed, log, root);
                layers::circuits(encoding, &designs, log, root, &mut m);
                let wall = |arm| {
                    traced
                        .arm_wall
                        .iter()
                        .find(|(a, _)| *a == arm)
                        .map_or(f64::NAN, |(_, w)| w.as_secs_f64())
                };
                speedup = wall("sacga8") / wall("sacga8x2");
            } else {
                layers::circuits(encoding, traced.samples.items(), log, root, &mut m);
                speedup = layers::parallel_speedup(run.seed, log, root);
            }
            let (kat_seed, kat_digest) = run.kat;
            checks.record(
                "known-answer run",
                kat_problems(
                    "known-answer",
                    ga_kat(kind, &*problem, kat_seed),
                    kat_digest,
                ),
            );
            canonicalizer = problem.cache_canonicalizer();
            samples = traced.samples.into_items();
            events = traced.sink.generation_ends;
            server_run = service::run(&service::Plan {
                mix: service::Mix::Probe,
                seed: run.seed,
                seconds: SERVER_PROBE_SECONDS,
                traced: false,
                kat: None,
                log: Some((log, root)),
                scratch: &scratch.0,
            })?;
            checks.attempted += server_run.checks.attempted;
            checks.failed += server_run.checks.failed;
            checks
                .errors
                .extend(server_run.checks.errors.iter().cloned());
        }
        Workload::Service => {
            let half = run.seconds.as_secs_f64() / 2.0;
            let plan = |traced, kat, log| service::Plan {
                mix: service::Mix::Full,
                seed: run.seed,
                seconds: half,
                traced,
                kat,
                log,
                scratch: &scratch.0,
            };
            let plain = service::run(&plan(false, None, None))?;
            let traced = service::run(&plan(true, Some(run.kat), Some((log, root))))?;
            m.insert(
                "trace.overhead_ms".into(),
                1e3 * (median(&traced.job_latency_s) - median(&plain.job_latency_s)),
            );
            layers::engine_counters(&traced.scrape, &mut m);
            layers::stages(&traced.stages, &mut m);
            let designs = layers::reference_designs(run.seed, log, root);
            layers::circuits(Encoding::Drivable, &designs, log, root, &mut m);
            speedup = layers::parallel_speedup(run.seed, log, root);
            canonicalizer = Some(analog_circuits::drivable::canonical_sizing_genes as _);
            samples = designs;
            events = traced.generation_ends.clone();
            checks = plain.checks;
            checks.attempted += traced.checks.attempted;
            checks.failed += traced.checks.failed;
            checks.errors.extend(traced.checks.errors.iter().cloned());
            server_run = traced;
        }
    }
    layers::engine(&samples, canonicalizer, speedup, log, root, &mut m);
    layers::loops(&samples, &events, run.seed, log, root, &mut m)?;
    layers::server(&server_run, &scratch.0, log, root, &mut m)?;
    log.end(root);
    Ok((checks, m))
}

/// Runs each (workload, run) as a child process of this binary and
/// appends each result, tagged, to `--out` (or prints it).
fn run_children(args: &Args, workloads: &[String], seconds: f64) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let host_workers = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut out: Box<dyn std::io::Write> = match &args.out {
        Some(path) => Box::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("open {}: {e}", path.display()))?,
        ),
        None => Box::new(std::io::stdout()),
    };
    let mut code = 0;
    for name in workloads {
        let workload = Workload::parse(name)?;
        let base = match args.seed {
            Some(seed) => seed,
            None => expected(workload)?.0,
        };
        for r in 0..args.runs as u64 {
            let seed = base + r;
            let started = Instant::now();
            let child = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let result = stdout
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .and_then(|l| Json::parse(l).ok());
            if !child.status.success() {
                eprintln!("{name} seed {seed}: run failed ({})", child.status);
                code = 1;
            }
            // A run whose checks failed still reports its result.
            let Some(result) = result else {
                continue;
            };
            let mut record = vec![
                ("workload", Json::Str(name.clone())),
                ("seed", Json::Num(seed as f64)),
                ("trace", Json::Num(f64::from(u8::from(args.trace)))),
                ("host_workers", Json::Num(host_workers as f64)),
                ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
                ("result", result),
            ];
            if let Some(label) = &args.label {
                record.push(("label", Json::Str(label.clone())));
            }
            writeln!(out, "{}", Json::object(record)).map_err(|e| format!("write result: {e}"))?;
        }
    }
    out.flush().map_err(|e| format!("write result: {e}"))?;
    Ok(code)
}

/// Reads a JSON-lines result file.
pub fn read_records(path: &Path) -> Result<Vec<Json>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}
