//! Replay analysis of run-event logs: the per-run summaries, reference
//! points and runtime aggregates behind the `trace_report` binary.
//!
//! Everything here works on replayed [`RunEvent`] streams — no live
//! optimizer state — so any `results/*.jsonl` log, including one
//! recovered from a crash, can be summarized after the fact.

use engine::{Stage, StageNanos};
use moea::hypervolume::hypervolume;
use sacga::telemetry::RunEvent;

/// One promotion step joined with the temperature its generation ran
/// at (from the matching [`RunEvent::GenerationEnd`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PromotionPoint {
    /// Generation the promotion fed into.
    pub generation: usize,
    /// Annealing temperature of that generation (∞ during phase I).
    pub temperature: f64,
    /// Candidates that won the SA gamble.
    pub promoted: usize,
    /// Locally superior candidates considered.
    pub candidates: usize,
}

/// One generation of the convergence trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Generation index.
    pub generation: usize,
    /// Points on the feasible global front.
    pub front_size: usize,
    /// Feasible individuals in the population.
    pub feasible: usize,
    /// Front hypervolume against the summary's reference point.
    pub hypervolume: f64,
}

/// Everything `trace_report` prints about one run, computed from a
/// replayed event stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// Executed generations (`GenerationEnd` count).
    pub generations: usize,
    /// Generations spent in phase I (pure local competition).
    pub phase1_generations: usize,
    /// Cumulative objective evaluations (from the last `GenerationEnd`).
    pub evaluations: u64,
    /// Fault episodes (retries-to-success plus quarantines).
    pub fault_episodes: u64,
    /// Fault episodes that ended in quarantine.
    pub fault_quarantined: u64,
    /// Suspension checkpoints written.
    pub checkpoints: usize,
    /// Promotion steps joined with their generation's temperature.
    pub promotions: Vec<PromotionPoint>,
    /// Per-generation front trajectory.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Reference point the trajectory hypervolumes were measured
    /// against (empty when the log carries no front points).
    pub ref_point: Vec<f64>,
    /// Summed per-stage wall-clock across all timed generations.
    pub stages: StageNanos,
    /// Generations that carried a `StageTiming` event.
    pub timed_generations: usize,
    /// Candidates submitted to the engine across timed generations.
    pub candidates: u64,
    /// Evaluations actually performed across timed generations.
    pub timed_evaluations: u64,
    /// Candidates answered from the memoization cache.
    pub cache_hits: u64,
}

impl RunSummary {
    /// Summarizes a replayed event stream. `ref_point` overrides the
    /// hypervolume reference (pass the union reference when comparing
    /// runs); `None` derives it from this stream via
    /// [`reference_point`].
    pub fn from_events(events: &[RunEvent], ref_point: Option<Vec<f64>>) -> RunSummary {
        let mut s = RunSummary {
            ref_point: ref_point
                .or_else(|| reference_point(events))
                .unwrap_or_default(),
            ..RunSummary::default()
        };
        let mut pending: Vec<(usize, usize, usize)> = Vec::new();
        for event in events {
            match event {
                RunEvent::GenerationEnd {
                    generation,
                    phase,
                    temperature,
                    feasible,
                    evaluations,
                    front,
                    ..
                } => {
                    s.generations += 1;
                    if *phase == 1 {
                        s.phase1_generations += 1;
                    }
                    s.evaluations = s.evaluations.max(*evaluations);
                    let hv = if front.is_empty() || s.ref_point.is_empty() {
                        0.0
                    } else {
                        hypervolume(front, &s.ref_point)
                    };
                    s.trajectory.push(TrajectoryPoint {
                        generation: *generation,
                        front_size: front.len(),
                        feasible: *feasible,
                        hypervolume: hv,
                    });
                    pending.retain(|&(gen, promoted, candidates)| {
                        if gen == *generation {
                            s.promotions.push(PromotionPoint {
                                generation: gen,
                                temperature: *temperature,
                                promoted,
                                candidates,
                            });
                            false
                        } else {
                            true
                        }
                    });
                }
                RunEvent::Promotion {
                    generation,
                    promoted,
                    candidates,
                } => pending.push((*generation, *promoted, *candidates)),
                RunEvent::EvaluationFault { resolution, .. } => {
                    s.fault_episodes += 1;
                    if matches!(resolution, engine::FaultResolution::Quarantined) {
                        s.fault_quarantined += 1;
                    }
                }
                RunEvent::CheckpointWritten { .. } => s.checkpoints += 1,
                RunEvent::StageTiming {
                    stages,
                    candidates,
                    evaluations,
                    cache_hits,
                    ..
                } => {
                    s.timed_generations += 1;
                    s.stages.merge(stages);
                    s.candidates += candidates;
                    s.timed_evaluations += evaluations;
                    s.cache_hits += cache_hits;
                }
                RunEvent::PhaseTransition { .. } | RunEvent::PartitionFeasible { .. } => {}
            }
        }
        s
    }

    /// Total timed wall-clock in seconds (0 when the log carries no
    /// stage timings).
    pub fn wall_seconds(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ns = self.stages.total() as f64;
        ns / 1e9
    }

    /// Evaluations per timed second; `None` without stage timings.
    pub fn evals_per_sec(&self) -> Option<f64> {
        let wall = self.wall_seconds();
        #[allow(clippy::cast_precision_loss)]
        (wall > 0.0).then(|| self.timed_evaluations as f64 / wall)
    }

    /// Fraction of candidates answered from the memoization cache;
    /// `None` without stage timings.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.candidates > 0).then(|| self.cache_hits as f64 / self.candidates as f64)
    }

    /// Final trajectory point, if any generation ran.
    pub fn last(&self) -> Option<&TrajectoryPoint> {
        self.trajectory.last()
    }

    /// Aggregates promotion acceptance into `bins` equal-width
    /// temperature bins over the observed finite-temperature range:
    /// `(temperature-bin upper edge, promoted, candidates)` rows,
    /// coldest bin first. Empty when no finite-temperature promotions
    /// were recorded.
    pub fn acceptance_by_temperature(&self, bins: usize) -> Vec<(f64, usize, usize)> {
        let finite: Vec<&PromotionPoint> = self
            .promotions
            .iter()
            .filter(|p| p.temperature.is_finite() && p.candidates > 0)
            .collect();
        if finite.is_empty() || bins == 0 {
            return Vec::new();
        }
        let lo = finite
            .iter()
            .map(|p| p.temperature)
            .fold(f64::MAX, f64::min);
        let hi = finite
            .iter()
            .map(|p| p.temperature)
            .fold(f64::MIN, f64::max);
        let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
        let mut rows = vec![(0.0, 0usize, 0usize); bins];
        for (i, row) in rows.iter_mut().enumerate() {
            row.0 = lo + width * (i + 1) as f64;
        }
        for p in finite {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let bin = (((p.temperature - lo) / width) as usize).min(bins - 1);
            rows[bin].1 += p.promoted;
            rows[bin].2 += p.candidates;
        }
        rows.retain(|&(_, _, candidates)| candidates > 0);
        rows
    }
}

/// Derives a hypervolume reference point from every front point in an
/// event stream: the per-objective maximum, padded by 5% of the range
/// so extreme points still contribute volume. `None` when the stream
/// carries no front points.
pub fn reference_point(events: &[RunEvent]) -> Option<Vec<f64>> {
    let mut lo: Vec<f64> = Vec::new();
    let mut hi: Vec<f64> = Vec::new();
    for event in events {
        let RunEvent::GenerationEnd { front, .. } = event else {
            continue;
        };
        for point in front {
            if lo.is_empty() {
                lo = point.clone();
                hi = point.clone();
                continue;
            }
            for (i, &x) in point.iter().enumerate().take(lo.len()) {
                lo[i] = lo[i].min(x);
                hi[i] = hi[i].max(x);
            }
        }
    }
    if hi.is_empty() {
        return None;
    }
    Some(
        hi.iter()
            .zip(&lo)
            .map(|(&h, &l)| h + 0.05 * (h - l).max(1e-12))
            .collect(),
    )
}

/// Merges reference points by taking the per-objective maximum, so two
/// runs can be diffed against one shared reference.
pub fn merge_reference(a: Option<Vec<f64>>, b: Option<Vec<f64>>) -> Option<Vec<f64>> {
    match (a, b) {
        (Some(a), Some(b)) => Some(
            a.iter()
                .zip(&b)
                .map(|(&x, &y)| x.max(y))
                .collect::<Vec<f64>>(),
        ),
        (Some(a), None) => Some(a),
        (None, b) => b,
    }
}

/// Renders one run's row of `BENCH_runtime.json` (an object literal;
/// the binary assembles the surrounding document).
pub fn runtime_json_entry(label: &str, summary: &RunSummary, skipped_lines: usize) -> String {
    let mut stage_fields = String::new();
    for stage in Stage::ALL {
        if !stage_fields.is_empty() {
            stage_fields.push(',');
        }
        #[allow(clippy::cast_precision_loss)]
        let secs = summary.stages.get(stage) as f64 / 1e9;
        stage_fields.push_str(&format!("\"{}\":{}", stage.name(), json_f64(secs)));
    }
    let evals_per_sec = summary
        .evals_per_sec()
        .map_or_else(|| "null".to_string(), json_f64);
    let cache_hit_rate = summary
        .cache_hit_rate()
        .map_or_else(|| "null".to_string(), json_f64);
    format!(
        "{{\"label\":{label:?},\"generations\":{},\"evaluations\":{},\
         \"fault_episodes\":{},\"quarantined\":{},\"skipped_lines\":{skipped_lines},\
         \"timed_generations\":{},\"wall_s\":{},\"evals_per_sec\":{evals_per_sec},\
         \"cache_hit_rate\":{cache_hit_rate},\"stage_s\":{{{stage_fields}}}}}",
        summary.generations,
        summary.evaluations,
        summary.fault_episodes,
        summary.fault_quarantined,
        summary.timed_generations,
        json_f64(summary.wall_seconds()),
    )
}

/// Formats a finite float as a JSON number (shortest round-trip form).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// One run row parsed back out of a `BENCH_runtime.json` document — the
/// subset of [`runtime_json_entry`] fields the regression gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeRun {
    /// Run label (the source log's file stem).
    pub label: String,
    /// Generations that carried stage timings.
    pub timed_generations: u64,
    /// Total timed wall-clock in seconds.
    pub wall_s: f64,
    /// Evaluations per timed second (`null` when nothing was timed).
    pub evals_per_sec: Option<f64>,
    /// Memoization hit rate over submitted candidates.
    pub cache_hit_rate: Option<f64>,
    /// Per-stage seconds in [`Stage::ALL`] order.
    pub stage_s: Vec<(String, f64)>,
}

impl RuntimeRun {
    /// Fraction of total timed stage seconds spent in `stage`; `None`
    /// when the stage is absent or nothing was timed.
    pub fn stage_share(&self, stage: &str) -> Option<f64> {
        let total: f64 = self.stage_s.iter().map(|(_, s)| s).sum();
        if total <= 0.0 {
            return None;
        }
        self.stage_s
            .iter()
            .find(|(name, _)| name == stage)
            .map(|(_, s)| s / total)
    }
}

/// Parses a `BENCH_runtime.json` document written by `trace_report
/// --json` back into its run rows. Hand-rolled for exactly the fixed
/// schema [`runtime_json_entry`] emits; anything else is an error, not
/// a guess.
pub fn parse_runtime_report(text: &str) -> Result<Vec<RuntimeRun>, String> {
    let runs_start = text
        .find("\"runs\":[")
        .ok_or_else(|| "missing \"runs\" array".to_string())?
        + "\"runs\":[".len();
    let mut runs = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in text[runs_start..].char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    obj_start = Some(runs_start + i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    let start = obj_start.take().ok_or("unbalanced braces")?;
                    runs.push(parse_runtime_run(&text[start..=runs_start + i])?);
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    Ok(runs)
}

fn parse_runtime_run(obj: &str) -> Result<RuntimeRun, String> {
    let label = json_string_field(obj, "label")?;
    let timed_generations = json_number_field(obj, "timed_generations")?
        .ok_or_else(|| format!("{label}: timed_generations is null"))?
        as u64;
    let wall_s =
        json_number_field(obj, "wall_s")?.ok_or_else(|| format!("{label}: wall_s is null"))?;
    let evals_per_sec = json_number_field(obj, "evals_per_sec")?;
    let cache_hit_rate = json_number_field(obj, "cache_hit_rate")?;
    let stages_at = obj
        .find("\"stage_s\":{")
        .ok_or_else(|| format!("{label}: missing stage_s"))?;
    let stages_obj = &obj[stages_at + "\"stage_s\":".len()..];
    let stages_end = stages_obj
        .find('}')
        .ok_or_else(|| format!("{label}: unterminated stage_s"))?;
    let mut stage_s = Vec::new();
    for stage in Stage::ALL {
        let secs = json_number_field(&stages_obj[..=stages_end], stage.name())?
            .ok_or_else(|| format!("{label}: stage {} is null", stage.name()))?;
        stage_s.push((stage.name().to_string(), secs));
    }
    Ok(RuntimeRun {
        label,
        timed_generations,
        wall_s,
        evals_per_sec,
        cache_hit_rate,
        stage_s,
    })
}

/// Extracts `"key":"value"` from a flat JSON object, undoing the two
/// escapes `{:?}` formatting produces for file-stem labels.
fn json_string_field(obj: &str, key: &str) -> Result<String, String> {
    let needle = format!("\"{key}\":\"");
    let start = obj
        .find(&needle)
        .ok_or_else(|| format!("missing string field {key:?}"))?
        + needle.len();
    let mut out = String::new();
    let mut escaped = false;
    for c in obj[start..].chars() {
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Ok(out);
        } else {
            out.push(c);
        }
    }
    Err(format!("unterminated string field {key:?}"))
}

/// Extracts `"key":<number|null>`; `Ok(None)` means an explicit `null`.
fn json_number_field(obj: &str, key: &str) -> Result<Option<f64>, String> {
    let needle = format!("\"{key}\":");
    let start = obj
        .find(&needle)
        .ok_or_else(|| format!("missing field {key:?}"))?
        + needle.len();
    let rest = &obj[start..];
    if rest.starts_with("null") {
        return Ok(None);
    }
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| format!("unterminated field {key:?}"))?;
    rest[..end]
        .trim()
        .parse::<f64>()
        .map(Some)
        .map_err(|e| format!("field {key:?}: {e}"))
}

/// A fresh run may be this many times slower than the baseline before
/// the gate fails. Generous on purpose: CI machines vary widely, and
/// the gate exists to catch order-of-magnitude regressions (a disabled
/// cache, an accidentally quadratic stage), not jitter.
pub const GATE_MIN_THROUGHPUT_FACTOR: f64 = 8.0;

/// Absolute slack allowed on each stage's share of timed wall-clock.
/// Evaluation dominates every committed baseline (>90%), so a support
/// stage climbing more than this many points signals a real regression
/// rather than machine noise.
pub const GATE_STAGE_SHARE_SLACK: f64 = 0.15;

/// Compares a fresh runtime report against a pinned baseline and
/// returns human-readable violations (empty = pass). Checks, per
/// baseline label: the label still exists and carries timings, evals
/// per second has not collapsed below `baseline /`
/// [`GATE_MIN_THROUGHPUT_FACTOR`], the memoization hit rate has not
/// regressed to zero, and no stage's share of wall-clock grew by more
/// than [`GATE_STAGE_SHARE_SLACK`].
pub fn gate_runtime_report(fresh: &[RuntimeRun], baseline: &[RuntimeRun]) -> Vec<String> {
    let mut violations = Vec::new();
    for base in baseline {
        let Some(run) = fresh.iter().find(|r| r.label == base.label) else {
            violations.push(format!("{}: missing from fresh report", base.label));
            continue;
        };
        if run.timed_generations == 0 {
            violations.push(format!("{}: no timed generations", run.label));
            continue;
        }
        match (run.evals_per_sec, base.evals_per_sec) {
            (Some(fresh_eps), Some(base_eps)) => {
                let floor = base_eps / GATE_MIN_THROUGHPUT_FACTOR;
                if fresh_eps < floor {
                    violations.push(format!(
                        "{}: evals/sec {fresh_eps:.1} fell below {floor:.1} \
                         (baseline {base_eps:.1} / {GATE_MIN_THROUGHPUT_FACTOR})",
                        run.label
                    ));
                }
            }
            (None, Some(_)) => {
                violations.push(format!(
                    "{}: evals/sec missing (baseline had one)",
                    run.label
                ));
            }
            _ => {}
        }
        if base.cache_hit_rate.unwrap_or(0.0) > 0.0 && run.cache_hit_rate.unwrap_or(0.0) <= 0.0 {
            violations.push(format!(
                "{}: cache hit rate dropped to zero (baseline {:.1}%)",
                run.label,
                base.cache_hit_rate.unwrap_or(0.0) * 100.0
            ));
        }
        for (stage, _) in &base.stage_s {
            let (Some(base_share), Some(fresh_share)) =
                (base.stage_share(stage), run.stage_share(stage))
            else {
                continue;
            };
            if fresh_share > base_share + GATE_STAGE_SHARE_SLACK {
                violations.push(format!(
                    "{}: stage {stage} grew to {:.1}% of wall-clock \
                     (baseline {:.1}%, slack {:.0} points)",
                    run.label,
                    fresh_share * 100.0,
                    base_share * 100.0,
                    GATE_STAGE_SHARE_SLACK * 100.0
                ));
            }
        }
    }
    violations
}

/// Oldest `BENCH_eval.json` schema the eval gate accepts: schema 2
/// introduced the `scheduling` block that carries `steady_speedup`.
pub const EVAL_SCHEMA_MIN: f64 = 2.0;

/// Newest schema this build understands (schema 3 added
/// `host_workers`; schema 4 dropped the batch-kernel rows and their
/// `speedup` block and renamed `kernels` to `rows`). `bench_eval` and
/// this constant move together.
pub const EVAL_SCHEMA_CURRENT: f64 = 4.0;

/// The fields the `bench_gate --eval` gate reads out of a
/// `BENCH_eval.json` report.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReading {
    /// The report's schema stamp.
    pub schema: f64,
    /// Steady-session over generational-barrier throughput on the
    /// heterogeneous-cost workload.
    pub steady_speedup: f64,
    /// Worker threads on the recording host (schema ≥ 3).
    pub host_workers: Option<f64>,
}

/// How to regenerate a missing or outdated `BENCH_eval.json`.
pub const EVAL_REGEN_HINT: &str =
    "regenerate it with `cargo run --release -p dse-bench --bin bench_eval`";

/// Parses the `schema` / `scheduling.steady_speedup` / `host_workers`
/// fields of a `BENCH_eval.json` document, rejecting stale or
/// too-new schema stamps with actionable messages instead of falling
/// over on a missing field downstream.
///
/// # Errors
///
/// Returns a human-readable message when the document has no schema
/// stamp (probably not a `BENCH_eval.json` at all), when the stamp
/// predates [`EVAL_SCHEMA_MIN`] or postdates [`EVAL_SCHEMA_CURRENT`],
/// or when a required field is missing or non-numeric.
pub fn parse_eval_report(text: &str) -> Result<EvalReading, String> {
    let schema = json_number_field(text, "schema")
        .ok()
        .flatten()
        .ok_or_else(|| format!("no \"schema\" stamp — not a BENCH_eval.json? {EVAL_REGEN_HINT}"))?;
    if schema < EVAL_SCHEMA_MIN {
        return Err(format!(
            "stale schema {schema} predates the scheduling block \
             (need >= {EVAL_SCHEMA_MIN}); {EVAL_REGEN_HINT}"
        ));
    }
    if schema > EVAL_SCHEMA_CURRENT {
        return Err(format!(
            "schema {schema} is newer than this gate understands \
             (<= {EVAL_SCHEMA_CURRENT}); rebuild bench_gate from the same tree as bench_eval"
        ));
    }
    let host_workers = if schema >= 3.0 {
        Some(
            json_number_field(text, "host_workers")
                .ok()
                .flatten()
                .ok_or_else(|| {
                    format!("schema {schema} report lacks host_workers; {EVAL_REGEN_HINT}")
                })?,
        )
    } else {
        None
    };
    let steady_speedup = json_number_field(text, "steady_speedup")
        .ok()
        .flatten()
        .ok_or_else(|| format!("no scheduling.steady_speedup field; {EVAL_REGEN_HINT}"))?;
    Ok(EvalReading {
        schema,
        steady_speedup,
        host_workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_end(
        generation: usize,
        phase: u8,
        temperature: f64,
        evaluations: u64,
        front: Vec<Vec<f64>>,
    ) -> RunEvent {
        RunEvent::GenerationEnd {
            generation,
            phase,
            temperature,
            promoted: 0,
            feasible: front.len(),
            population: 40,
            evaluations,
            front,
        }
    }

    fn timing(generation: usize, evaluation_ns: u64, candidates: u64, hits: u64) -> RunEvent {
        RunEvent::StageTiming {
            generation,
            stages: StageNanos {
                variation: 1_000,
                evaluation: evaluation_ns,
                ranking: 500,
                promotion: 0,
                selection: 250,
            },
            candidates,
            evaluations: candidates - hits,
            cache_hits: hits,
        }
    }

    fn sample_stream() -> Vec<RunEvent> {
        vec![
            gen_end(1, 1, f64::INFINITY, 40, vec![]),
            timing(1, 1_000_000_000, 40, 0),
            RunEvent::Promotion {
                generation: 2,
                promoted: 3,
                candidates: 10,
            },
            gen_end(2, 2, 0.8, 80, vec![vec![1.0, 2.0], vec![2.0, 1.0]]),
            timing(2, 1_000_000_000, 40, 10),
            RunEvent::Promotion {
                generation: 3,
                promoted: 1,
                candidates: 10,
            },
            gen_end(3, 2, 0.2, 120, vec![vec![0.5, 2.0], vec![2.0, 0.5]]),
            timing(3, 1_000_000_000, 40, 20),
        ]
    }

    #[test]
    fn summary_counts_and_trajectory() {
        let s = RunSummary::from_events(&sample_stream(), None);
        assert_eq!(s.generations, 3);
        assert_eq!(s.phase1_generations, 1);
        assert_eq!(s.evaluations, 120);
        assert_eq!(s.timed_generations, 3);
        assert_eq!(s.candidates, 120);
        assert_eq!(s.cache_hits, 30);
        assert_eq!(s.trajectory.len(), 3);
        assert_eq!(s.trajectory[0].hypervolume, 0.0);
        assert!(s.trajectory[2].hypervolume > s.trajectory[1].hypervolume);
    }

    #[test]
    fn promotions_join_their_generations_temperature() {
        let s = RunSummary::from_events(&sample_stream(), None);
        assert_eq!(s.promotions.len(), 2);
        assert_eq!(s.promotions[0].temperature, 0.8);
        assert_eq!(s.promotions[1].temperature, 0.2);
        let rows = s.acceptance_by_temperature(2);
        assert_eq!(rows.len(), 2);
        // Cold bin holds the gen-3 promotion (1/10), hot the gen-2 (3/10).
        assert_eq!((rows[0].1, rows[0].2), (1, 10));
        assert_eq!((rows[1].1, rows[1].2), (3, 10));
    }

    #[test]
    fn runtime_rates_derive_from_stage_timings() {
        let s = RunSummary::from_events(&sample_stream(), None);
        // Three timed generations, ~1s evaluation each plus small spans.
        assert!(s.wall_seconds() > 3.0 && s.wall_seconds() < 3.1);
        let eps = s.evals_per_sec().unwrap();
        assert!(eps > 28.0 && eps < 31.0, "evals/sec {eps}");
        let hit = s.cache_hit_rate().unwrap();
        assert!((hit - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_without_timings_has_no_rates() {
        let events = vec![gen_end(1, 2, 1.0, 40, vec![vec![1.0, 1.0]])];
        let s = RunSummary::from_events(&events, None);
        assert_eq!(s.timed_generations, 0);
        assert_eq!(s.evals_per_sec(), None);
        assert_eq!(s.cache_hit_rate(), None);
    }

    #[test]
    fn reference_point_pads_the_observed_maximum() {
        let r = reference_point(&sample_stream()).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r[0] > 2.0 && r[1] > 2.0);
        let merged = merge_reference(Some(vec![5.0, 1.0]), Some(r.clone())).unwrap();
        assert_eq!(merged[0], 5.0);
        assert_eq!(merged[1], r[1]);
    }

    #[test]
    fn runtime_json_entry_is_parseable_shape() {
        let s = RunSummary::from_events(&sample_stream(), None);
        let json = runtime_json_entry("demo", &s, 1);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"label\":\"demo\""));
        assert!(json.contains("\"skipped_lines\":1"));
        assert!(json.contains("\"evaluation\":"));
        assert!(!json.contains("inf"));
    }

    fn sample_report() -> String {
        let s = RunSummary::from_events(&sample_stream(), None);
        format!(
            "{{\"schema\":1,\"runs\":[{},{}]}}\n",
            runtime_json_entry("alpha", &s, 0),
            runtime_json_entry("beta", &s, 2),
        )
    }

    #[test]
    fn runtime_report_round_trips_through_the_parser() {
        let s = RunSummary::from_events(&sample_stream(), None);
        let runs = parse_runtime_report(&sample_report()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].label, "alpha");
        assert_eq!(runs[1].label, "beta");
        assert_eq!(runs[0].timed_generations, 3);
        assert!((runs[0].wall_s - s.wall_seconds()).abs() < 1e-12);
        assert_eq!(runs[0].evals_per_sec, s.evals_per_sec());
        assert_eq!(runs[0].cache_hit_rate, s.cache_hit_rate());
        assert_eq!(runs[0].stage_s.len(), Stage::ALL.len());
        // Evaluation dominates the synthetic stream's timings.
        assert!(runs[0].stage_share("evaluation").unwrap() > 0.99);
    }

    #[test]
    fn runtime_report_parser_rejects_garbage() {
        assert!(parse_runtime_report("not json").is_err());
        assert!(parse_runtime_report("{\"schema\":1,\"runs\":[{\"label\":\"x\"}]}").is_err());
    }

    #[test]
    fn gate_passes_a_report_against_itself() {
        let runs = parse_runtime_report(&sample_report()).unwrap();
        assert!(gate_runtime_report(&runs, &runs).is_empty());
    }

    #[test]
    fn gate_flags_throughput_collapse_and_dead_cache() {
        let baseline = parse_runtime_report(&sample_report()).unwrap();
        let mut fresh = baseline.clone();
        fresh[0].evals_per_sec = baseline[0].evals_per_sec.map(|e| e / 100.0);
        fresh[1].cache_hit_rate = Some(0.0);
        let violations = gate_runtime_report(&fresh, &baseline);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("alpha") && violations[0].contains("evals/sec"));
        assert!(violations[1].contains("beta") && violations[1].contains("cache hit rate"));
    }

    #[test]
    fn gate_flags_missing_labels_and_stage_blowups() {
        let baseline = parse_runtime_report(&sample_report()).unwrap();
        let mut fresh = vec![baseline[0].clone()];
        // Ranking balloons from ~0% to half the wall-clock.
        let total: f64 = fresh[0].stage_s.iter().map(|(_, s)| s).sum();
        for (name, secs) in &mut fresh[0].stage_s {
            if name == "ranking" {
                *secs = total;
            }
        }
        let violations = gate_runtime_report(&fresh, &baseline);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("ranking"), "{violations:?}");
        assert!(violations[1].contains("beta") && violations[1].contains("missing"));
    }

    #[test]
    fn gate_tolerates_machine_speed_jitter() {
        let baseline = parse_runtime_report(&sample_report()).unwrap();
        let mut fresh = baseline.clone();
        // Half the throughput and a mild share shuffle stay in tolerance.
        for run in &mut fresh {
            run.evals_per_sec = run.evals_per_sec.map(|e| e / 2.0);
            run.cache_hit_rate = run.cache_hit_rate.map(|h| h / 3.0);
            for (_, secs) in &mut run.stage_s {
                *secs *= 1.7;
            }
        }
        assert!(gate_runtime_report(&fresh, &baseline).is_empty());
    }

    #[test]
    fn eval_report_parses_current_and_previous_schemas() {
        let v4 = "{\"schema\":4,\"batch\":256,\"host_workers\":2,\"rows\":[],\
                  \"scheduling\":{\"steady_speedup\":1.5}}";
        let r = parse_eval_report(v4).unwrap();
        assert_eq!(r.schema, 4.0);
        assert_eq!(r.steady_speedup, 1.5);
        assert_eq!(r.host_workers, Some(2.0));
        let v3 = "{\"schema\":3,\"batch\":256,\"host_workers\":4,\
                  \"scheduling\":{\"steady_speedup\":1.42}}";
        let r = parse_eval_report(v3).unwrap();
        assert_eq!(r.schema, 3.0);
        assert_eq!(r.steady_speedup, 1.42);
        assert_eq!(r.host_workers, Some(4.0));
        let v2 = "{\"schema\":2,\"scheduling\":{\"steady_speedup\":1.1}}";
        let r = parse_eval_report(v2).unwrap();
        assert_eq!(r.host_workers, None);
    }

    #[test]
    fn eval_report_rejects_missing_stale_and_future_schemas() {
        let e = parse_eval_report("{\"steady_speedup\":1.0}").unwrap_err();
        assert!(e.contains("not a BENCH_eval.json"), "{e}");
        assert!(e.contains("bench_eval"), "{e}");
        let e = parse_eval_report("{\"schema\":1,\"speedup\":{}}").unwrap_err();
        assert!(e.contains("stale schema 1"), "{e}");
        assert!(e.contains("regenerate"), "{e}");
        let e = parse_eval_report("{\"schema\":9}").unwrap_err();
        assert!(e.contains("newer than this gate"), "{e}");
        // A current-schema report missing its required fields still
        // names what is missing rather than panicking downstream.
        let e = parse_eval_report("{\"schema\":3}").unwrap_err();
        assert!(e.contains("host_workers"), "{e}");
        let e = parse_eval_report("{\"schema\":3,\"host_workers\":2}").unwrap_err();
        assert!(e.contains("steady_speedup"), "{e}");
    }
}
