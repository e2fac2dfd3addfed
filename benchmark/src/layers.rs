//! Per-layer measurements of the `--trace 1` run. Each layer's public
//! functions are timed from outside the layer, on inputs taken from what
//! the traced workload actually did wherever the workload produces them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use analog_circuits::integrator;
use analog_circuits::mosfet::Mosfet;
use analog_circuits::opamp;
use analog_circuits::process::DeviceType;
use analog_circuits::sizing::{DesignVector, CL_RANGE};
use analog_circuits::yield_est;
use analog_circuits::{DrivableLoadProblem, IntegratorProblem, Spec};
use dse_server::{JobSpec, JobState, JobStore};
use engine::{
    CacheCanonicalizer, CacheConfig, EngineConfig, ExecutionEngine, MemoCache, StageNanos,
};
use moea::problems::Zdt1;
use moea::sorting::fast_non_dominated_sort;
use moea::{Evaluation, Individual, Problem};
use sacga::telemetry::{CheckpointText, NullSink, Optimizer};
use sacga::{RunEvent, Sacga, SacgaCheckpoint, SacgaConfig};

use crate::ga::{self, GaKind};
use crate::service::ServiceRun;
use crate::stats::{median, quantile, tail_percentile};
use crate::trace::{Sample, SpanId, SpanLog};

pub type Metrics = BTreeMap<String, f64>;

/// Designs replayed through each circuit function.
pub const REPLAY_DESIGNS: usize = 2000;
/// Keys pushed through the memo cache and the batch path.
const ENGINE_KEYS: usize = 20_000;
/// Shortest time each replay loop is repeated for.
const MIN_LOOP: Duration = Duration::from_millis(50);

/// How a recorded gene vector decodes into a circuit design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Fourteen sizing genes plus the input common mode; `C_L` is
    /// searched (the drivable-load problem).
    Drivable,
    /// Fifteen genes with `C_L` as the last (the integrator problem).
    Integrator,
}

/// Times `f` over every item, repeating whole passes until `MIN_LOOP`
/// has elapsed; returns ns per call and records one span.
fn per_call_ns<T>(
    log: &SpanLog,
    parent: SpanId,
    name: &'static str,
    items: &[T],
    mut f: impl FnMut(&T),
) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < MIN_LOOP {
        for item in items {
            f(item);
        }
        calls += items.len().max(1);
    }
    let end = Instant::now();
    log.record(name, parent, start, end);
    (end - start).as_nanos() as f64 / calls as f64
}

/// Evenly spaced picks of at most `n` items.
fn spread_pick<T: Clone>(items: &[T], n: usize) -> Vec<T> {
    if items.len() <= n {
        return items.to_vec();
    }
    (0..n).map(|i| items[i * items.len() / n].clone()).collect()
}

/// Replays recorded designs through every circuit-layer function.
pub fn circuits(
    encoding: Encoding,
    samples: &[Sample],
    log: &SpanLog,
    parent: SpanId,
    m: &mut Metrics,
) {
    let span = log.begin("replay.circuits", parent);
    let drivable = DrivableLoadProblem::new(Spec::featured());
    let integ = IntegratorProblem::new(Spec::featured());
    let (process, clock, spec) = (drivable.process(), drivable.clock(), drivable.spec());
    let genes: Vec<Vec<f64>> = spread_pick(samples, REPLAY_DESIGNS)
        .into_iter()
        .map(|(x, _)| x)
        .collect();
    // Each design as the evaluator sees it, and at the load it is
    // analysed at: its drivable load (or the minimum when nothing is
    // drivable) for the drivable encoding, its own C_L otherwise.
    let mut designs = Vec::with_capacity(genes.len());
    let (mut n_drivable, mut n_biased) = (0usize, 0usize);
    for x in &genes {
        let dv = match encoding {
            Encoding::Drivable => DesignVector::from_sizing_genes(x).quantize(),
            Encoding::Integrator => DesignVector::from_genes(x),
        };
        let load = drivable.drivable_load(&dv);
        n_drivable += usize::from(load.is_some());
        n_biased += usize::from(opamp::analyze(&dv, process).is_biased());
        let at = match (encoding, load) {
            (Encoding::Drivable, Some((cl, _))) => dv.with_cl(cl),
            (Encoding::Drivable, None) => dv.with_cl(CL_RANGE.0),
            (Encoding::Integrator, _) => dv,
        };
        designs.push((dv, at));
    }
    let n = designs.len().max(1) as f64;
    let vdd = process.vdd;
    let mosfets: Vec<(Mosfet, f64)> = designs
        .iter()
        .map(|(dv, _)| (Mosfet::new(DeviceType::Nmos, dv.w1, dv.l1), 0.5 * dv.itail))
        .collect();

    let ns = |name, f: &mut dyn FnMut(usize)| {
        let idx: Vec<usize> = (0..designs.len()).collect();
        per_call_ns(log, span, name, &idx, |&i| f(i))
    };
    let id_ns = ns("mosfet.id", &mut |i| {
        black_box(mosfets[i].0.id(process, black_box(0.8), 0.5 * vdd));
    });
    let vgs_ns = ns("mosfet.vgs_for_current", &mut |i| {
        black_box(
            mosfets[i]
                .0
                .vgs_for_current(process, mosfets[i].1, 0.5 * vdd, vdd),
        );
    });
    let opamp_ns = ns("opamp.analyze", &mut |i| {
        black_box(opamp::analyze(black_box(&designs[i].0), process));
    });
    let analyze_ns = ns("integrator.analyze", &mut |i| {
        black_box(integrator::analyze(
            black_box(&designs[i].1),
            process,
            clock,
        ));
    });
    let load_ns = ns("drivable.drivable_load", &mut |i| {
        black_box(drivable.drivable_load(black_box(&designs[i].0)));
    });
    let drivable_eval_ns = ns("drivable.evaluate", &mut |i| {
        black_box(drivable.evaluate(black_box(&genes[i])));
    });
    let integ_eval_ns = ns("integrator_problem.evaluate", &mut |i| {
        black_box(integ.evaluate(black_box(&genes[i])));
    });
    let robust_ns = ns("yield.robustness", &mut |i| {
        black_box(yield_est::robustness(
            black_box(&designs[i].1),
            process,
            clock,
            spec,
        ));
    });
    let plan_ns = per_call_ns(log, span, "yield.prepared_plan", &[()], |()| {
        black_box(yield_est::prepared_plan(black_box(process)));
    });
    log.end(span);

    let own_eval_ns = match encoding {
        Encoding::Drivable => drivable_eval_ns,
        Encoding::Integrator => integ_eval_ns,
    };
    for (name, v) in [
        ("circuits.mosfet.id_ns", id_ns),
        ("circuits.mosfet.vgs_for_current_ns", vgs_ns),
        ("circuits.opamp.analyze_ns", opamp_ns),
        ("circuits.integrator.analyze_ns", analyze_ns),
        ("circuits.drivable.drivable_load_ns", load_ns),
        ("circuits.drivable.evaluate_ns", drivable_eval_ns),
        ("circuits.integrator_problem.evaluate_ns", integ_eval_ns),
        ("circuits.yield.robustness_ns", robust_ns),
        ("circuits.yield.prepared_plan_ns", plan_ns),
        (
            "circuits.analyze_equiv_per_evaluate",
            own_eval_ns / analyze_ns,
        ),
        ("circuits.drivable_share", n_drivable as f64 / n),
        ("circuits.biased_share", n_biased as f64 / n),
    ] {
        m.insert(name.to_string(), v);
    }
}

/// Designs from a short traced `fig05`-style run, for workloads whose
/// own evaluations are not circuit designs.
pub fn reference_designs(seed: u64, log: &SpanLog, parent: SpanId) -> Vec<Sample> {
    let problem = dse_bench::paper_problem();
    let span = log.begin("reference_designs", parent);
    let recorded = crate::trace::Recorded::new(&problem, log, span);
    let run = ga::run_arm(
        GaKind::Fig05,
        "sacga8",
        REFERENCE_GENS,
        &recorded,
        ga::base_setup(),
        seed,
        &mut NullSink,
    );
    log.end(span);
    debug_assert!(run.problems.is_empty(), "{:?}", run.problems);
    recorded.into_samples()
}

/// Generations of the reference design recording.
pub const REFERENCE_GENS: usize = 12;

/// The engine's memo cache, its batch path, and serial-vs-parallel
/// speed, on the workload's own evaluated genes.
pub fn engine(
    samples: &[Sample],
    canonicalizer: Option<CacheCanonicalizer>,
    speedup: f64,
    log: &SpanLog,
    parent: SpanId,
    m: &mut Metrics,
) {
    let span = log.begin("probe.engine", parent);
    let genes: Vec<Vec<f64>> = spread_pick(samples, ENGINE_KEYS)
        .into_iter()
        .map(|(x, _)| canonicalizer.map_or_else(|| x.clone(), |c| c(&x)))
        .collect();
    let config = CacheConfig::with_capacity(dse_bench::FIG_CACHE_CAPACITY);
    let keys: Vec<Vec<i64>> = {
        let cache: MemoCache<u64> = MemoCache::new(config.clone());
        genes.iter().map(|g| cache.key_of(g)).collect()
    };
    // Fresh caches per pass: inserts always add an entry, gets always
    // find one.
    let (mut insert_ns, mut get_ns, mut passes) = (0.0, 0.0, 0);
    let start = Instant::now();
    while passes == 0 || start.elapsed() < MIN_LOOP {
        let mut cache = MemoCache::new(config.clone());
        let t = Instant::now();
        for (i, k) in keys.iter().enumerate() {
            cache.insert(k.clone(), i as u64);
        }
        let t_mid = Instant::now();
        for k in &keys {
            black_box(cache.get(k));
        }
        insert_ns += (t_mid - t).as_nanos() as f64;
        get_ns += t_mid.elapsed().as_nanos() as f64;
        passes += 1;
    }
    log.record("memo_cache", span, start, Instant::now());
    let per = (passes * keys.len().max(1)) as f64;
    m.insert("engine.memo_cache.insert_ns".into(), insert_ns / per);
    m.insert("engine.memo_cache.get_ns".into(), get_ns / per);

    // The engine's own per-candidate cost: a trivial closure, so the
    // time is keying, lookup, insertion and bookkeeping.
    let batches: Vec<Vec<Vec<f64>>> = genes.chunks(100).map(<[Vec<f64>]>::to_vec).collect();
    let start = Instant::now();
    let mut candidates = 0usize;
    while candidates == 0 || start.elapsed() < MIN_LOOP {
        let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(
            EngineConfig::default().cache_capacity(dse_bench::FIG_CACHE_CAPACITY),
        );
        for b in &batches {
            black_box(engine.evaluate_batch(b, &|g: &[f64]| g[0]));
            candidates += b.len().max(1);
        }
    }
    let end = Instant::now();
    log.record("evaluate_batch", span, start, end);
    m.insert(
        "engine.evaluate_batch.overhead_ns_per_candidate".into(),
        (end - start).as_nanos() as f64 / candidates as f64,
    );
    m.insert("engine.parallel_speedup".into(), speedup);
    log.end(span);
}

/// Serial over parallel wall time of the `engine` workload's `sacga8`
/// arm pair, on ZDT1, for workloads that do not run the pair.
pub fn parallel_speedup(seed: u64, log: &SpanLog, parent: SpanId) -> f64 {
    let span = log.begin("probe.parallel_speedup", parent);
    let problem = Zdt1::new(ga::ZDT_VARS);
    let (mut serial, mut parallel) = (Duration::ZERO, Duration::ZERO);
    for rep in 0..3 {
        for (arm, total) in [("sacga8", &mut serial), ("sacga8x2", &mut parallel)] {
            let run = ga::run_arm(
                GaKind::Engine,
                arm,
                ga::ENGINE_GENS,
                &problem,
                ga::base_setup(),
                crate::sub_seed(seed, rep),
                &mut NullSink,
            );
            *total += run.wall;
        }
    }
    log.end(span);
    serial.as_secs_f64() / parallel.as_secs_f64()
}

/// Sorting, checkpoint text and event encoding, timed on the workload's
/// objective vectors and events.
pub fn loops(
    samples: &[Sample],
    events: &[RunEvent],
    seed: u64,
    log: &SpanLog,
    parent: SpanId,
    m: &mut Metrics,
) -> Result<(), String> {
    let span = log.begin("probe.loops", parent);
    // A merged parent+offspring population of a 100-individual run.
    let pop: Vec<Individual> = samples
        .iter()
        .cycle()
        .take(200)
        .map(|(x, obj)| Individual::new(x.clone(), Evaluation::unconstrained(obj.clone())))
        .collect();
    let sort_ns = per_call_ns(log, span, "fast_non_dominated_sort", &[()], |()| {
        let mut p = pop.clone();
        black_box(fast_non_dominated_sort(&mut p));
    });
    m.insert(
        "moea.sorting.fast_non_dominated_sort_us".into(),
        sort_ns / 1e3,
    );

    let cfg = SacgaConfig::builder()
        .population_size(ga::ENGINE_POP)
        .generations(10)
        .partitions(8)
        .build()
        .map_err(|e| e.to_string())?;
    let ga = Sacga::new(Zdt1::new(ga::ZDT_VARS), cfg);
    let checkpoint = match ga.run_until(seed, 5).map_err(|e| e.to_string())? {
        moea::RunStatus::Suspended(cp) => cp,
        moea::RunStatus::Complete(_) => return Err("checkpoint probe did not suspend".into()),
    };
    let text = checkpoint.to_checkpoint_text();
    let to_text_ns = per_call_ns(log, span, "checkpoint.to_text", &[()], |()| {
        black_box(checkpoint.to_checkpoint_text());
    });
    let mut parsed_ok = true;
    let parse_ns = per_call_ns(log, span, "checkpoint.parse", &[()], |()| {
        parsed_ok &= black_box(SacgaCheckpoint::from_checkpoint_text(&text)).is_ok();
    });
    if !parsed_ok {
        return Err("checkpoint text did not parse back".into());
    }
    m.insert("core.checkpoint.to_text_us".into(), to_text_ns / 1e3);
    m.insert("core.checkpoint.parse_us".into(), parse_ns / 1e3);

    let encode_ns = per_call_ns(log, span, "jsonl_encode", events, |e| {
        black_box(e.to_json());
    });
    m.insert("telemetry.jsonl_encode_us".into(), encode_ns / 1e3);
    log.end(span);
    Ok(())
}

/// Stage totals of the traced operations.
pub fn stages(stages: &StageNanos, m: &mut Metrics) {
    let s = |ns: u64| ns as f64 / 1e9;
    m.insert("stage.variation_s".into(), s(stages.variation));
    m.insert("stage.evaluation_s".into(), s(stages.evaluation));
    m.insert("stage.ranking_s".into(), s(stages.ranking));
    m.insert("stage.promotion_s".into(), s(stages.promotion));
    m.insert("stage.selection_s".into(), s(stages.selection));
    m.insert(
        "stage.evaluation_share".into(),
        stages.evaluation as f64 / stages.total().max(1) as f64,
    );
}

/// Sum of every sample of `name` in a Prometheus text scrape whose
/// labels contain `filter`.
fn scrape_sum(text: &str, name: &str, filter: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            (metric == name && series.contains(filter)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Engine counters from a metrics scrape.
pub fn engine_counters(scrape: &str, m: &mut Metrics) {
    let sum = |name| scrape_sum(scrape, name, "");
    let candidates = sum("dse_engine_candidates_total");
    m.insert("engine.candidates".into(), candidates);
    m.insert(
        "engine.evaluations".into(),
        sum("dse_engine_evaluations_total"),
    );
    m.insert(
        "engine.cache_hit_rate".into(),
        ratio(sum("dse_engine_cache_hits_total"), candidates),
    );
    m.insert(
        "engine.eval_latency_mean_us".into(),
        1e6 * ratio(
            sum("dse_engine_eval_latency_seconds_sum"),
            sum("dse_engine_eval_latency_seconds_count"),
        ),
    );
    m.insert(
        "engine.batch_size_mean".into(),
        ratio(
            sum("dse_engine_batch_size_sum"),
            sum("dse_engine_batch_size_count"),
        ),
    );
}

/// The server layer's metrics from an open-loop run.
pub fn server(
    run: &ServiceRun,
    scratch: &Path,
    log: &SpanLog,
    parent: SpanId,
    m: &mut Metrics,
) -> Result<(), String> {
    let verb_p50 = |verb: &str| {
        let v: Vec<f64> = run
            .verb_ms
            .iter()
            .filter(|(name, _)| *name == verb)
            .map(|&(_, ms)| ms)
            .collect();
        median(&v)
    };
    let tail = |v: &[f64]| quantile(v, tail_percentile(v.len()).unwrap_or(1.0));
    let lags: Vec<f64> = run
        .submit_lag_ms
        .iter()
        .chain(&run.probe_lag_ms)
        .copied()
        .collect();
    let sum = |name| scrape_sum(&run.scrape, name, "");
    let lab = "tenant=\"lab\"";
    for (name, v) in [
        ("server.request_p50_ms", median(&run.probe_ms)),
        ("server.request_p99_ms", tail(&run.probe_ms)),
        ("server.verb.submit_ms_p50", verb_p50("submit")),
        ("server.verb.status_ms_p50", verb_p50("status")),
        ("server.verb.ping_ms_p50", verb_p50("ping")),
        ("server.verb.metrics_ms_p50", verb_p50("metrics")),
        (
            "server.verb.ping_back_to_back_ms_p50",
            verb_p50("ping_back_to_back"),
        ),
        ("server.job_latency_p75_s", tail(&run.job_latency_s)),
        ("server.queue_wait_s_p50", median(&run.queue_wait_s)),
        ("server.generator_lag_p99_ms", tail(&lags)),
        (
            "server.slice_s_mean",
            ratio(
                sum("dse_server_slice_seconds_sum"),
                sum("dse_server_slice_seconds_count"),
            ),
        ),
        ("server.preemptions", sum("dse_server_preemptions_total")),
        (
            "server.busy_ratio",
            sum("dse_server_slice_seconds_sum") / (run.workers as f64 * run.window_s),
        ),
        (
            "server.tenant_cache_hit_rate",
            ratio(
                scrape_sum(&run.scrape, "dse_engine_cache_hits_total", lab),
                scrape_sum(&run.scrape, "dse_engine_candidates_total", lab),
            ),
        ),
    ] {
        m.insert(name.to_string(), v);
    }

    let parse_ns = per_call_ns(log, parent, "spec.parse", &run.lines, |l| {
        black_box(JobSpec::parse(black_box(l)).ok());
    });
    m.insert("server.spec.parse_us".into(), parse_ns / 1e3);

    let dir = scratch.join("store-probe");
    let store = JobStore::open(&dir).map_err(|e| format!("open probe store: {e}"))?;
    let spec = JobSpec::parse(&run.lines[0]).map_err(|e| e.to_string())?;
    store
        .create_job(spec.id(), &spec)
        .map_err(|e| format!("probe store: {e}"))?;
    let state = JobState::queued();
    let mut wrote_ok = true;
    let write_ns = per_call_ns(log, parent, "store.write_state", &[()], |()| {
        wrote_ok &= store.write_state(spec.id(), &state).is_ok();
    });
    let _ = std::fs::remove_dir_all(&dir);
    if !wrote_ok {
        return Err("probe store write failed".into());
    }
    m.insert("server.store.write_state_us".into(), write_ns / 1e3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sum_adds_matching_series_only() {
        let text = "# TYPE dse_x_total counter\n\
                    dse_x_total{tenant=\"lab\"} 3\n\
                    dse_x_total{tenant=\"none\"} 4\n\
                    dse_x_total_other 100\n\
                    dse_y_sum 2.5\n";
        assert_eq!(scrape_sum(text, "dse_x_total", ""), 7.0);
        assert_eq!(scrape_sum(text, "dse_x_total", "tenant=\"lab\""), 3.0);
        assert_eq!(scrape_sum(text, "dse_y_sum", ""), 2.5);
        assert_eq!(scrape_sum(text, "dse_missing", ""), 0.0);
    }

    #[test]
    fn spread_pick_keeps_order_and_bound() {
        let v: Vec<u32> = (0..10).collect();
        assert_eq!(spread_pick(&v, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(spread_pick(&v, 20), v);
    }
}
