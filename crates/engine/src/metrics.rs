//! A dependency-free, process-wide metrics plane.
//!
//! [`MetricsRegistry`] is a thread-safe, cloneable registry of monotonic
//! [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s. Handles are
//! cheap `Arc`-backed clones whose hot-path operations are single atomic
//! instructions (a CAS loop for histogram sums), so instrumented code
//! never takes the registry lock while recording — only registration and
//! snapshotting do.
//!
//! Metrics carry a small label model: `tenant`, `job`, `arm` and
//! `stage`. Registration is idempotent — asking for the same name,
//! label set and type returns a handle to the same underlying cell, so a
//! resumed job keeps incrementing the counters its first slice created.
//!
//! [`MetricsRegistry::render_text`] emits a deterministic, sorted
//! Prometheus-style text exposition (`# TYPE` headers, cumulative
//! `_bucket{le="..."}` samples, `_sum`/`_count`);
//! [`MetricsRegistry::render_json`] emits the same snapshot as one
//! canonical JSON document. Both sort by `(name, labels)` so two
//! snapshots of equal state are byte-identical regardless of
//! registration order or thread interleaving.
//!
//! [`EngineMetrics`] bundles the handles the execution engine records
//! into; attaching it to an engine observes evaluation without steering
//! it (recording never touches the RNG or candidate ordering).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Label names a metric may carry, in the canonical emission order.
pub const LABEL_NAMES: [&str; 4] = ["tenant", "job", "arm", "stage"];

/// A monotonic counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits). Cloning shares the cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared state behind a [`Histogram`] handle.
#[derive(Debug)]
struct HistogramCore {
    /// Finite, strictly increasing upper bounds; observations above the
    /// last bound land in the implicit `+Inf` bucket.
    bounds: Vec<f64>,
    /// Non-cumulative per-bucket hit counts, `bounds.len() + 1` long
    /// (the last slot is the `+Inf` bucket). Snapshots cumulate.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum of observations as `f64` bits, updated by CAS.
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: Vec<f64>) -> Self {
        let slots = bounds.len() + 1;
        HistogramCore {
            bounds,
            buckets: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// A fixed-bucket histogram. Cloning shares the underlying cells.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let core = &*self.0;
        let slot = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[slot].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// The finite bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Cumulative bucket counts, one per finite bound plus the trailing
    /// `+Inf` bucket (which always equals [`Histogram::count`] once
    /// concurrent writers settle).
    pub fn cumulative_buckets(&self) -> Vec<u64> {
        let mut total = 0u64;
        self.0
            .buckets
            .iter()
            .map(|b| {
                total += b.load(Ordering::Relaxed);
                total
            })
            .collect()
    }
}

/// Exponential latency bounds in seconds, ~1 µs to ~16 s.
pub fn latency_buckets() -> Vec<f64> {
    let mut out = Vec::with_capacity(13);
    let mut b = 1e-6;
    for _ in 0..13 {
        out.push(b);
        b *= 4.0;
    }
    out
}

/// Power-of-two batch-size bounds, 1 to 4096.
pub fn batch_buckets() -> Vec<f64> {
    (0..13).map(|i| f64::from(1u32 << i)).collect()
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn type_token(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// `(name, sorted labels)` — the registry key and snapshot sort order.
type MetricKey = (String, Vec<(String, String)>);

/// A thread-safe registry of named, labeled metrics.
///
/// Cloning shares the registry; a default registry is empty. See the
/// [module docs](self) for the registration and snapshot contract.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<MetricKey, Metric>>>,
}

/// Validates a metric/label name and canonicalizes labels for keying.
fn canonical_labels(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid metric name {name:?}"
    );
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| {
            assert!(
                LABEL_NAMES.contains(k),
                "unknown label {k:?} (expected one of {LABEL_NAMES:?})"
            );
            ((*k).to_string(), (*v).to_string())
        })
        .collect();
    out.sort();
    out.dedup();
    (name.to_string(), out)
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, a label outside [`LABEL_NAMES`], or if
    /// the name+labels already hold a different metric type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = canonical_labels(name, labels);
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("{name}: registered as {}, not counter", other.type_token()),
        }
    }

    /// Registers (or retrieves) a gauge. Panics as [`MetricsRegistry::counter`] does.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = canonical_labels(name, labels);
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("{name}: registered as {}, not gauge", other.type_token()),
        }
    }

    /// Registers (or retrieves) a histogram with the given finite,
    /// strictly increasing bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics as [`MetricsRegistry::counter`] does, on unsorted or
    /// non-finite bounds, and if an existing histogram under the same
    /// name+labels has different bounds.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        assert!(
            !bounds.is_empty()
                && bounds.iter().all(|b| b.is_finite())
                && bounds.windows(2).all(|w| w[0] < w[1]),
            "{name}: histogram bounds must be finite and strictly increasing"
        );
        let key = canonical_labels(name, labels);
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map.entry(key).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCore::new(bounds.to_vec()))))
        }) {
            Metric::Histogram(h) => {
                assert!(
                    h.bounds() == bounds,
                    "{name}: histogram re-registered with different bounds"
                );
                h.clone()
            }
            other => panic!(
                "{name}: registered as {}, not histogram",
                other.type_token()
            ),
        }
    }

    /// Renders the Prometheus-style text exposition: one `# TYPE` header
    /// per metric name, samples sorted by `(name, labels)`, histograms
    /// as cumulative `_bucket{le="..."}` plus `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        let map = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), metric) in map.iter() {
            if name != last_name {
                out.push_str(&format!("# TYPE {name} {}\n", metric.type_token()));
            }
            last_name = name;
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        render_labels(labels, None),
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        render_labels(labels, None),
                        fmt_f64(g.get())
                    ));
                }
                Metric::Histogram(h) => {
                    let cumulative = h.cumulative_buckets();
                    for (i, bound) in h.bounds().iter().enumerate() {
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            render_labels(labels, Some(&fmt_f64(*bound))),
                            cumulative[i]
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_bucket{} {}\n",
                        render_labels(labels, Some("+Inf")),
                        cumulative[h.bounds().len()]
                    ));
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        render_labels(labels, None),
                        fmt_f64(h.sum())
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        render_labels(labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// Renders the same snapshot as one canonical JSON document:
    /// `{"metrics":[...]}` in the text exposition's sort order.
    pub fn render_json(&self) -> String {
        let map = self.inner.lock().expect("metrics registry poisoned");
        let mut rows = Vec::with_capacity(map.len());
        for ((name, labels), metric) in map.iter() {
            let labels_json = labels
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect::<Vec<_>>()
                .join(",");
            let row = match metric {
                Metric::Counter(c) => format!(
                    "{{\"name\":{},\"type\":\"counter\",\"labels\":{{{labels_json}}},\"value\":{}}}",
                    json_str(name),
                    c.get()
                ),
                Metric::Gauge(g) => format!(
                    "{{\"name\":{},\"type\":\"gauge\",\"labels\":{{{labels_json}}},\"value\":{}}}",
                    json_str(name),
                    json_f64(g.get())
                ),
                Metric::Histogram(h) => {
                    let cumulative = h.cumulative_buckets();
                    let buckets = h
                        .bounds()
                        .iter()
                        .enumerate()
                        .map(|(i, b)| format!("{{\"le\":{},\"count\":{}}}", json_f64(*b), cumulative[i]))
                        .chain(std::iter::once(format!(
                            "{{\"le\":\"+Inf\",\"count\":{}}}",
                            cumulative[h.bounds().len()]
                        )))
                        .collect::<Vec<_>>()
                        .join(",");
                    format!(
                        "{{\"name\":{},\"type\":\"histogram\",\"labels\":{{{labels_json}}},\
                         \"buckets\":[{buckets}],\"sum\":{},\"count\":{}}}",
                        json_str(name),
                        json_f64(h.sum()),
                        h.count()
                    )
                }
            };
            rows.push(row);
        }
        format!("{{\"metrics\":[{}]}}", rows.join(","))
    }
}

/// Formats a label set (plus an optional `le` bound) for exposition.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value for the text exposition.
fn escape_label(v: &str) -> String {
    v.chars()
        .flat_map(|c| match c {
            '\\' => vec!['\\', '\\'],
            '"' => vec!['\\', '"'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// Deterministic shortest-roundtrip float rendering (Rust `Debug`).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:?}")
    }
}

/// JSON float rendering: finite values roundtrip, non-finite become null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".into()
    }
}

/// JSON string literal with minimal escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The engine-side metric bundle: the seven evaluation counters of
/// [`EngineStats`](crate::EngineStats), a per-evaluation latency
/// histogram and a batch-size histogram.
///
/// An [`EvaluationSession`](crate::EvaluationSession) adds what its
/// `EngineStats` counters gained to the bundle at the end of every drain
/// and when it closes. At those boundaries each counter equals its
/// `EngineStats` field (for a fresh engine; a restored one adds only
/// what it gains); a scrape in between misses the submissions made
/// since the last boundary.
///
/// Handles are shared clones; equality is *identity* (same underlying
/// cells), so configs holding a bundle stay `PartialEq`-derivable.
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    /// Candidates submitted (`dse_engine_candidates_total`).
    pub candidates: Counter,
    /// Full model evaluations performed (`dse_engine_evaluations_total`).
    pub evaluations: Counter,
    /// Memoization hits (`dse_engine_cache_hits_total`).
    pub cache_hits: Counter,
    /// Candidates answered by the surrogate screen (`dse_engine_screened_total`).
    pub screened: Counter,
    /// Fault retries attempted (`dse_engine_fault_retries_total`).
    pub fault_retries: Counter,
    /// Faults recovered by retry (`dse_engine_fault_recovered_total`).
    pub fault_recovered: Counter,
    /// Candidates quarantined (`dse_engine_fault_quarantined_total`).
    pub fault_quarantined: Counter,
    /// Per-evaluation wall latency in seconds
    /// (`dse_engine_eval_latency_seconds`): every guarded call is timed
    /// on its own, by the worker or, without a pool, by the draining
    /// thread.
    pub eval_latency: Histogram,
    /// Engine batch sizes (`dse_engine_batch_size`).
    pub batch_size: Histogram,
}

impl EngineMetrics {
    /// Registers the bundle under `labels` in `registry`.
    pub fn register(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        EngineMetrics {
            candidates: registry.counter("dse_engine_candidates_total", labels),
            evaluations: registry.counter("dse_engine_evaluations_total", labels),
            cache_hits: registry.counter("dse_engine_cache_hits_total", labels),
            screened: registry.counter("dse_engine_screened_total", labels),
            fault_retries: registry.counter("dse_engine_fault_retries_total", labels),
            fault_recovered: registry.counter("dse_engine_fault_recovered_total", labels),
            fault_quarantined: registry.counter("dse_engine_fault_quarantined_total", labels),
            eval_latency: registry.histogram(
                "dse_engine_eval_latency_seconds",
                labels,
                &latency_buckets(),
            ),
            batch_size: registry.histogram("dse_engine_batch_size", labels, &batch_buckets()),
        }
    }
}

impl PartialEq for EngineMetrics {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.candidates.0, &other.candidates.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("dse_test_total", &[("tenant", "acme")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Idempotent registration returns the same cell.
        assert_eq!(
            reg.counter("dse_test_total", &[("tenant", "acme")]).get(),
            3
        );
        let g = reg.gauge("dse_test_depth", &[]);
        g.set(2.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_cumulate_and_balance() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("dse_test_seconds", &[], &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.cumulative_buckets(), vec![1, 3, 4, 5]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 56.05).abs() < 1e-9);
    }

    #[test]
    fn text_exposition_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("dse_b_total", &[("tenant", "t2")]).inc();
        reg.counter("dse_b_total", &[("tenant", "t1")]).add(2);
        reg.gauge("dse_a_depth", &[]).set(4.0);
        let text = reg.render_text();
        let expected = "# TYPE dse_a_depth gauge\n\
                        dse_a_depth 4\n\
                        # TYPE dse_b_total counter\n\
                        dse_b_total{tenant=\"t1\"} 2\n\
                        dse_b_total{tenant=\"t2\"} 1\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn histogram_exposition_has_inf_bucket_sum_and_count() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("dse_lat_seconds", &[("job", "j1")], &[0.5, 2.0]);
        h.observe(0.25);
        h.observe(8.0);
        let text = reg.render_text();
        assert!(text.contains("# TYPE dse_lat_seconds histogram"));
        assert!(text.contains("dse_lat_seconds_bucket{job=\"j1\",le=\"0.5\"} 1"));
        assert!(text.contains("dse_lat_seconds_bucket{job=\"j1\",le=\"2\"} 1"));
        assert!(text.contains("dse_lat_seconds_bucket{job=\"j1\",le=\"+Inf\"} 2"));
        assert!(text.contains("dse_lat_seconds_sum{job=\"j1\"} 8.25"));
        assert!(text.contains("dse_lat_seconds_count{job=\"j1\"} 2"));
    }

    #[test]
    fn json_snapshot_is_canonical() {
        let reg = MetricsRegistry::new();
        reg.counter("dse_x_total", &[("arm", "sacga")]).add(7);
        let json = reg.render_json();
        assert_eq!(
            json,
            "{\"metrics\":[{\"name\":\"dse_x_total\",\"type\":\"counter\",\
             \"labels\":{\"arm\":\"sacga\"},\"value\":7}]}"
        );
    }

    #[test]
    fn snapshots_are_identical_across_registration_order_and_threads() {
        let render = |names: &[&str]| {
            let reg = MetricsRegistry::new();
            thread::scope(|s| {
                for name in names {
                    let reg = reg.clone();
                    s.spawn(move || {
                        reg.counter(name, &[("stage", "eval")]).add(1);
                        reg.counter(name, &[("stage", "eval")]).add(2);
                    });
                }
            });
            reg.render_text()
        };
        let a = render(&["dse_m1_total", "dse_m2_total", "dse_m3_total"]);
        let b = render(&["dse_m3_total", "dse_m1_total", "dse_m2_total"]);
        assert_eq!(a, b);
        assert!(a.contains("dse_m2_total{stage=\"eval\"} 3"));
    }

    #[test]
    #[should_panic(expected = "not counter")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("dse_clash", &[]);
        reg.counter("dse_clash", &[]);
    }

    #[test]
    #[should_panic(expected = "unknown label")]
    fn unknown_label_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("dse_total", &[("host", "a")]);
    }

    #[test]
    fn engine_metrics_equality_is_identity() {
        let reg = MetricsRegistry::new();
        let a = EngineMetrics::register(&reg, &[("tenant", "t")]);
        let b = EngineMetrics::register(&reg, &[("tenant", "t")]);
        let c = EngineMetrics::register(&reg, &[("tenant", "u")]);
        assert_eq!(a, b, "same cells");
        assert_ne!(a, c, "different label set, different cells");
    }
}
