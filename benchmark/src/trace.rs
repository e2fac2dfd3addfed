//! In-memory tracing for the `--trace 1` run: spans recorded at the
//! boundary of each layer the benchmark calls into, a forwarding
//! `Problem` that records what the optimizer actually evaluates, and a
//! sink that keeps the optimizer's stage timings and events.
//!
//! Spans stay in memory and are written once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use engine::{CacheCanonicalizer, StageNanos};
use moea::{Bounds, Evaluation, Problem};
use sacga::telemetry::{EventKind, RunEvent, Sink};

use crate::json::Json;

pub type SpanId = usize;

/// The root span's parent.
pub const NO_PARENT: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// Every span of one run: name, start, end and the span that caused it.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`SpanLog::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.push(name, parent, Instant::now(), None)
    }

    pub fn end(&self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span log poisoned")[id].end_ns = now;
    }

    /// Records a span that has already finished.
    pub fn record(&self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        self.push(name, parent, start, Some(end));
    }

    fn push(
        &self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Option<Instant>,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let end_ns = end.map_or(start_ns, |e| self.ns(e));
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        spans.len() - 1
    }

    /// Per span name: count, total time and self time (the span's time
    /// minus the union of its children's intervals), in ms.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(c) = children.get_mut(s.parent) {
                c.push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_length(kids, s.start_ns, s.end_ns);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 / 1e6;
            entry.2 += total.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Writes one JSON line per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                Json::Null
            } else {
                Json::Num(s.parent as f64)
            };
            let line = Json::object([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("parent", parent),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A design the optimizer evaluated, with the objectives it got back.
pub type Sample = (Vec<f64>, Vec<f64>);

/// Designs each traced arm keeps: a uniform sample of everything it
/// evaluated, so memory stays flat however long the arm runs.
pub const SAMPLES_PER_ARM: usize = 4000;
/// Designs a traced run keeps across all its arms.
pub const SAMPLES_PER_RUN: usize = 20_000;

/// A uniform, deterministic sample of a stream (reservoir sampling
/// driven by a hash of the item's position).
#[derive(Debug)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    items: Vec<Sample>,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir::new(SAMPLES_PER_RUN)
    }
}

impl Reservoir {
    pub fn new(capacity: usize) -> Self {
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::new(),
        }
    }

    pub fn items(&self) -> &[Sample] {
        &self.items
    }

    pub fn into_items(self) -> Vec<Sample> {
        self.items
    }

    pub fn offer(&mut self, item: impl FnOnce() -> Sample) {
        let k = self.seen;
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item());
        } else {
            let slot = crate::splitmix64(k) % (k + 1);
            if let Some(s) = self.items.get_mut(slot as usize) {
                *s = item();
            }
        }
    }
}

/// Forwards every `Problem` call to `inner`, recording an `evaluate`
/// span per call and a sample of the evaluated designs with their
/// objectives.
///
/// Only `evaluate` is forwarded for evaluation, so a traced run takes
/// the scalar path even where the problem has a batch kernel; the
/// results are bit-identical either way.
pub struct Recorded<'a, P: ?Sized> {
    inner: &'a P,
    log: &'a SpanLog,
    parent: SpanId,
    samples: Mutex<Reservoir>,
}

impl<'a, P: Problem + ?Sized> Recorded<'a, P> {
    pub fn new(inner: &'a P, log: &'a SpanLog, parent: SpanId) -> Self {
        Recorded {
            inner,
            log,
            parent,
            samples: Mutex::new(Reservoir::new(SAMPLES_PER_ARM)),
        }
    }

    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
            .into_inner()
            .expect("sample log poisoned")
            .items
    }
}

impl<P: Problem + ?Sized> Problem for Recorded<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bounds(&self) -> &Bounds {
        self.inner.bounds()
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        let start = Instant::now();
        let ev = self.inner.evaluate(x);
        self.log
            .record("evaluate", self.parent, start, Instant::now());
        self.samples
            .lock()
            .expect("sample log poisoned")
            .offer(|| (x.to_vec(), ev.objectives().to_vec()));
        ev
    }

    fn cache_canonicalizer(&self) -> Option<CacheCanonicalizer> {
        self.inner.cache_canonicalizer()
    }
}

/// Keeps what a traced optimizer run reports about itself: per-stage
/// time and every generation-end event.
#[derive(Debug, Default)]
pub struct StageSink {
    pub stages: StageNanos,
    pub generation_ends: Vec<RunEvent>,
}

impl Sink for StageSink {
    fn record(&mut self, event: &RunEvent) {
        match event {
            RunEvent::StageTiming { stages, .. } => self.stages.merge(stages),
            RunEvent::GenerationEnd { .. } => self.generation_ends.push(event.clone()),
            _ => {}
        }
    }

    fn wants(&self, kind: EventKind) -> bool {
        matches!(kind, EventKind::StageTiming | EventKind::GenerationEnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let log = SpanLog::new();
        let t0 = log.epoch;
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        log.record("root", NO_PARENT, at(0), at(10));
        // Overlapping children cover [2, 7) once.
        log.record("child", 0, at(2), at(5));
        log.record("child", 0, at(4), at(7));
        let summary = log.summary();
        let (n, total, self_ms) = summary["root"];
        assert_eq!(n, 1);
        assert!((total - 10.0).abs() < 1e-9);
        assert!((self_ms - 5.0).abs() < 1e-9);
        assert_eq!(summary["child"].0, 2);
    }

    #[test]
    fn reservoir_keeps_a_bounded_deterministic_sample() {
        let fill = || {
            let mut r = Reservoir::new(SAMPLES_PER_ARM);
            for i in 0..3 * SAMPLES_PER_ARM {
                r.offer(|| (vec![i as f64], vec![]));
            }
            r.items
        };
        let a = fill();
        assert_eq!(a.len(), SAMPLES_PER_ARM);
        assert_eq!(a, fill());
        // Later items got in, so the sample is not just the prefix.
        assert!(a.iter().any(|(x, _)| x[0] >= (2 * SAMPLES_PER_ARM) as f64));
    }
}
