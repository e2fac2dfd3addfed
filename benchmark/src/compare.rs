//! `compare BASE NEW`: applies the bounds of `BENCHMARK.json` to two sets
//! of runs (at least five each), per end-to-end metric and workload, and
//! lists the per-layer medians of traced runs side by side.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median, quartiles, relative_spread};
use crate::{read_records, Bench, MetricDef, BENCHMARK_JSON};

/// Runs each side needs before a verdict is given.
pub const MIN_RUNS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is better by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound, so a change of
    /// that size could not be told from noise.
    Unresolved,
}

/// The verdict on one metric of one workload. `bound` is the allowed
/// worsening as a share of the base median.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (b, n) = (median(base), median(new));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (n - b) / b.abs();
    let spread = relative_spread(base)
        .unwrap_or(f64::INFINITY)
        .max(relative_spread(new).unwrap_or(f64::INFINITY));
    let better_than_all = |x: f64| base.iter().all(|&y| sign * (x - y) < 0.0);
    if spread > bound {
        if new.iter().all(|&x| better_than_all(x)) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Metric values per (workload, metric) from result records.
fn collect(records: &[Json], traced: bool) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in records {
        let is_traced = r.get("trace").and_then(Json::as_f64) == Some(1.0);
        let (Ok(workload), Some(metrics)) = (
            r.str_field("workload"),
            r.get("result")
                .and_then(|res| res.get("metrics"))
                .and_then(Json::as_object),
        ) else {
            continue;
        };
        if is_traced != traced {
            continue;
        }
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

fn failures(records: &[Json]) -> u64 {
    records
        .iter()
        .filter_map(|r| r.get("result")?.get("failed")?.as_f64())
        .sum::<f64>() as u64
}

/// `v` with five significant digits, however small it is.
fn sig(v: f64) -> String {
    let magnitude = if v == 0.0 || !v.is_finite() {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (4 - magnitude).clamp(0, 15) as usize)
}

fn describe(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{:>12} [{}, {}]", sig(q2), sig(q1), sig(q3)),
        None => format!("{:>12}", sig(median(values))),
    }
}

pub fn main(args: &[String]) -> Result<i32, String> {
    let [base, new] = args else {
        return Err("usage: dse_benchmark compare BASE.jsonl NEW.jsonl".into());
    };
    let bench = Bench::parse(BENCHMARK_JSON)?;
    let base = read_records(Path::new(base))?;
    let new = read_records(Path::new(new))?;
    let mut code = 0;
    for (side, records) in [("base", &base), ("new", &new)] {
        let failed = failures(records);
        if failed > 0 {
            println!("{side}: {failed} failed operations");
            code = 1;
        }
    }

    let (b, n) = (collect(&base, false), collect(&new, false));
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>8} {:>7} verdict",
        "workload", "metric", "base median", "new median", "change", "spread"
    );
    for workload in &bench.workloads {
        for MetricDef {
            name,
            lower_is_better,
            bound,
            ..
        } in &bench.end_to_end
        {
            let key = (workload.clone(), name.clone());
            let (Some(bv), Some(nv)) = (b.get(&key), n.get(&key)) else {
                println!("{workload:<12} {name:<16} missing");
                code = 1;
                continue;
            };
            if bv.len() < MIN_RUNS || nv.len() < MIN_RUNS {
                println!(
                    "{workload:<12} {name:<16} needs {MIN_RUNS} runs a side, has {} and {}",
                    bv.len(),
                    nv.len()
                );
                code = 1;
                continue;
            }
            let bound = bound.unwrap_or(0.0);
            let v = verdict(bv, nv, bound, *lower_is_better);
            if matches!(v, Verdict::Regression | Verdict::Unresolved) {
                code = 1;
            }
            let spread = relative_spread(bv)
                .unwrap_or(f64::NAN)
                .max(relative_spread(nv).unwrap_or(f64::NAN));
            println!(
                "{workload:<12} {name:<16} {:>12} {:>12} {:>+7.1}% {:>6.1}% {v:?} (bound {:.0}%)",
                sig(median(bv)),
                sig(median(nv)),
                100.0 * (median(nv) - median(bv)) / median(bv),
                100.0 * spread,
                100.0 * bound,
            );
        }
    }

    let (b, n) = (collect(&base, true), collect(&new, true));
    if !b.is_empty() || !n.is_empty() {
        println!("\nper-layer medians [quartiles] of traced runs");
        for ((workload, name), nv) in &n {
            let bv = b.get(&(workload.clone(), name.clone()));
            println!(
                "{workload:<12} {name:<48} {} -> {}",
                bv.map_or_else(|| "-".to_string(), |v| describe(v)),
                describe(nv)
            );
        }
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn small_changes_are_the_same() {
        let new = BASE.map(|v| v * 1.03);
        assert_eq!(verdict(&BASE, &new, 0.1, true), Verdict::Same);
    }

    #[test]
    fn worsening_beyond_the_bound_is_a_regression_in_either_direction() {
        let slower = BASE.map(|v| v * 1.2);
        assert_eq!(verdict(&BASE, &slower, 0.1, true), Verdict::Regression);
        // For a higher-is-better metric the same numbers are a gain...
        assert_eq!(verdict(&BASE, &slower, 0.1, false), Verdict::Better);
        // ...and a drop is the regression.
        let lower = BASE.map(|v| v * 0.8);
        assert_eq!(verdict(&BASE, &lower, 0.1, false), Verdict::Regression);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [50.0, 150.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&noisy, &noisy, 0.1, true), Verdict::Unresolved);
        let all_better = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert_eq!(verdict(&noisy, &all_better, 0.1, true), Verdict::Better);
    }

    #[test]
    fn values_keep_five_significant_digits() {
        assert_eq!(sig(8237.84392), "8237.8");
        assert_eq!(sig(0.00065012), "0.00065012");
        assert_eq!(sig(1.5654e-6), "0.0000015654");
        assert_eq!(sig(0.0), "0.0000");
    }

    #[test]
    fn records_round_trip_through_collect() {
        let line = r#"{"workload":"fig05","trace":0,"result":{"correct":true,"attempted":3,"failed":1,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}}"#;
        let rec = Json::parse(line).unwrap();
        let again = Json::parse(&rec.to_string()).unwrap();
        let got = collect(std::slice::from_ref(&again), false);
        assert_eq!(
            got[&("fig05".to_string(), "setup_s".to_string())],
            vec![0.5]
        );
        assert!(collect(std::slice::from_ref(&again), true).is_empty());
        assert_eq!(failures(&[again]), 1);
    }
}
