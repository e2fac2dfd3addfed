//! Metrics-plane invariants: histogram bucket laws, snapshot
//! determinism under concurrency, and the end-to-end scrape served by
//! the optimization service.

use std::sync::atomic::{AtomicU64, Ordering};

use analog_dse::engine::{EngineMetrics, MetricsRegistry};
use dse_server::{Server, ServerConfig};
use proptest::prelude::*;

proptest! {
    /// Cumulative bucket counts are monotone non-decreasing, end at the
    /// total observation count, and the recorded sum matches the inputs.
    #[test]
    fn histogram_buckets_cumulate_and_balance(
        bounds_seed in prop::collection::vec(1u32..1000, 1..8),
        values in prop::collection::vec(0.0f64..2000.0, 0..200),
    ) {
        // Strictly increasing finite bounds from the seed deltas.
        let mut bounds = Vec::new();
        let mut acc = 0.0f64;
        for d in &bounds_seed {
            acc += f64::from(*d);
            bounds.push(acc);
        }
        let registry = MetricsRegistry::new();
        let h = registry.histogram("dse_test_hist", &[], &bounds);
        for v in &values {
            h.observe(*v);
        }
        let cumulative = h.cumulative_buckets();
        prop_assert_eq!(cumulative.len(), bounds.len() + 1);
        for w in cumulative.windows(2) {
            prop_assert!(w[0] <= w[1], "cumulative counts must be monotone");
        }
        prop_assert_eq!(*cumulative.last().unwrap(), values.len() as u64);
        prop_assert_eq!(h.count(), values.len() as u64);
        let expected_sum: f64 = values.iter().sum();
        prop_assert!((h.sum() - expected_sum).abs() <= 1e-9 * expected_sum.abs().max(1.0));
        // Each finite bucket holds exactly the values at or under its bound.
        for (i, b) in bounds.iter().enumerate() {
            let at_or_under = values.iter().filter(|v| **v <= *b).count() as u64;
            prop_assert_eq!(cumulative[i], at_or_under);
        }
    }

    /// The rendered snapshot is a pure function of the recorded values:
    /// registration order, interleaving, and thread count never change
    /// a byte of either exposition format.
    #[test]
    fn snapshots_are_deterministic_across_thread_counts(
        increments in prop::collection::vec(1u64..50, 1..24),
        threads in 1usize..5,
    ) {
        let build = |workers: usize| {
            let registry = MetricsRegistry::new();
            let per_series: Vec<_> = (0..increments.len())
                .map(|i| {
                    let arm = if i % 2 == 0 { "a" } else { "b" };
                    (
                        registry.counter("dse_test_ops_total", &[("arm", arm), ("tenant", "x")]),
                        registry.histogram("dse_test_size", &[("arm", arm)], &[1.0, 8.0, 64.0]),
                        increments[i],
                    )
                })
                .collect();
            std::thread::scope(|scope| {
                for chunk in per_series.chunks(per_series.len().div_ceil(workers)) {
                    scope.spawn(move || {
                        for (counter, hist, n) in chunk {
                            counter.add(*n);
                            #[allow(clippy::cast_precision_loss)]
                            hist.observe(*n as f64);
                        }
                    });
                }
            });
            (registry.render_text(), registry.render_json())
        };
        let serial = build(1);
        let threaded = build(threads);
        prop_assert_eq!(serial, threaded);
    }
}

#[test]
fn two_scrapes_of_an_active_server_are_monotone_and_balanced() {
    // The acceptance criterion behind the CI metrics-smoke job, run
    // in-process: scrape between jobs, scrape again after more work,
    // and require counter monotonicity plus the candidate balance.
    use dse_server::{AlgoSpec, JobSpec, ProblemSpec};

    let root = std::env::temp_dir().join(format!("dse-metrics-plane-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = Server::open(&root, ServerConfig::new()).unwrap();
    let spec = |name: &str| {
        JobSpec::new(
            name,
            ProblemSpec::Schaffer,
            AlgoSpec::Sacga {
                pop: 16,
                gens: 5,
                parts: 4,
            },
            42,
        )
        .tenant("acme")
    };
    server.submit(spec("first")).unwrap();
    server.run_until_idle().unwrap();
    let first = parse_samples(&server.metrics_text());
    server.submit(spec("second")).unwrap();
    server.run_until_idle().unwrap();
    let second = parse_samples(&server.metrics_text());

    let mut counters_checked = 0;
    for (name, value) in &first {
        if name.contains("_total") || name.contains("_count") || name.contains("_bucket") {
            let later = second
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} vanished from the second scrape"));
            assert!(
                later.1 >= *value,
                "{name} went backwards: {} -> {}",
                value,
                later.1
            );
            counters_checked += 1;
        }
    }
    assert!(counters_checked > 10, "scrape had too few counter samples");

    let total = |scrape: &[(String, f64)], metric: &str| -> f64 {
        scrape
            .iter()
            .filter(|(n, _)| n.starts_with(metric))
            .map(|(_, v)| v)
            .sum()
    };
    for scrape in [&first, &second] {
        let candidates = total(scrape, "dse_engine_candidates_total");
        assert!(candidates > 0.0);
        assert!(
            (candidates
                - total(scrape, "dse_engine_evaluations_total")
                - total(scrape, "dse_engine_cache_hits_total")
                - total(scrape, "dse_engine_screened_total"))
            .abs()
                < 0.5,
            "candidate balance violated"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Parses `name{labels} value` exposition lines into (series, value).
fn parse_samples(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[test]
fn registry_handles_are_shared_not_copied() {
    // Re-registering the same (name, labels) returns handles over the
    // same underlying cell — the property that lets a requeued job, and
    // every job of one tenant and arm, add into the same series.
    let registry = MetricsRegistry::new();
    let a = EngineMetrics::register(&registry, &[("tenant", "t1")]);
    let b = EngineMetrics::register(&registry, &[("tenant", "t1")]);
    a.candidates.add(3);
    b.candidates.add(4);
    assert_eq!(a.candidates.get(), 7);
    assert_eq!(a, b);
    let other = EngineMetrics::register(&registry, &[("tenant", "t2")]);
    assert_eq!(other.candidates.get(), 0);
    assert_ne!(a, other);
}

#[test]
fn counters_from_many_threads_lose_nothing() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("dse_test_threads_total", &[]);
    let hits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let counter = counter.clone();
            let hits = &hits;
            scope.spawn(move || {
                for _ in 0..1000 {
                    counter.inc();
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(counter.get(), hits.load(Ordering::Relaxed));
    assert_eq!(counter.get(), 8000);
}
