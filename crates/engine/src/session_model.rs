//! Model-based test of [`EvaluationSession`](crate::EvaluationSession).
//!
//! Random submit/drain schedules run through a real engine and through a
//! reference written here from the documented semantics: a linear-scan
//! LRU over plain `Vec<i64>` keys and a linear scan of the undrained
//! submissions for duplicates. Genes come from a small palette, so cache
//! hits, aliases across drain boundaries, evictions, screened owners and
//! tainted (never cached) values all occur. Every drained value (by
//! bits), every `EngineStats` counter at every drain, the evaluator's
//! call sequence (serial only) and the cache's final entries in LRU order
//! must match the reference, under `Serial` and `ParallelWith(2)`, on the
//! private and the shared cache.

use crate::{
    CacheConfig, EngineConfig, EngineStats, EvaluatorKind, ExecutionEngine, SharedCache,
    SharedCacheStats, SurrogateScreen,
};
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

/// Gene values the schedules draw from. `0.5 + 2e-10` quantizes onto the
/// same key as `0.5` at the default grid, so the cache also merges
/// near-identical candidates.
const PALETTE: [f64; 5] = [0.0, 0.25, 0.5, 0.5 + 2e-10, 1.0];

/// Capacities the schedules draw from (a shared cache needs at least one
/// entry, so capacity 0 is private only).
const CAPACITIES: [usize; 4] = [0, 1, 3, 64];

/// A first gene of this value evaluates to NaN: tainted, never cached.
const NAN_GENE: f64 = 0.25;

/// A second gene of this value is answered by the screen.
const SCREENED_GENE: f64 = 1.0;

fn model_eval(genes: &[f64]) -> f64 {
    if genes[0] == NAN_GENE {
        return f64::NAN;
    }
    genes
        .iter()
        .enumerate()
        .map(|(i, x)| x * (i as f64 + 1.5))
        .sum::<f64>()
        + 1.0
}

fn model_screen(genes: &[f64]) -> Option<f64> {
    (genes[1] == SCREENED_GENE).then(|| -1000.0 - genes[0])
}

fn quantize(genes: &[f64]) -> Vec<i64> {
    genes
        .iter()
        .map(|&x| (x / CacheConfig::DEFAULT_GRID).round() as i64)
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Submit([f64; 2]),
    Prime(f64),
    Drain(usize),
    DrainAll,
    /// Closes the session (abandoning its undrained submissions) and
    /// opens a new one on the same engine and cache.
    NewSession,
}

#[derive(Debug, Clone)]
struct Schedule {
    capacity: usize,
    shared: bool,
    screen: bool,
    ops: Vec<Op>,
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..12,
        0usize..PALETTE.len(),
        0usize..PALETTE.len(),
        0usize..7,
    )
        .prop_map(|(kind, a, b, n)| match kind {
            0..=6 => Op::Submit([PALETTE[a], PALETTE[b]]),
            7 | 8 => Op::Drain(n),
            9 => Op::DrainAll,
            10 => Op::Prime(1e6 + (a * 7 + b) as f64),
            _ => Op::NewSession,
        })
}

fn schedule() -> impl Strategy<Value = Schedule> {
    (
        0usize..CAPACITIES.len(),
        0u8..2,
        0u8..2,
        prop::collection::vec(op(), 1..64),
    )
        .prop_map(|(c, shared, screen, ops)| {
            let capacity = CAPACITIES[c];
            Schedule {
                capacity,
                shared: shared == 1 && capacity > 0,
                screen: screen == 1,
                ops,
            }
        })
}

/// What one run of a schedule shows: per drain, its values (as bits)
/// and the stats after it; then the final stats, the evaluator's calls,
/// the cache's entries from most to least recently used, and the shared
/// store's counters.
#[derive(Debug, PartialEq)]
struct Observed {
    drains: Vec<(Vec<u64>, EngineStats)>,
    stats: EngineStats,
    calls: Vec<Vec<u64>>,
    lru: Vec<(Vec<i64>, u64)>,
    shared: Option<SharedCacheStats>,
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The stats without wall-clock time, which no reference can predict.
fn counters(stats: &EngineStats) -> EngineStats {
    EngineStats {
        eval_time: Duration::ZERO,
        ..stats.clone()
    }
}

/// One submission as the reference sees it.
#[derive(Debug)]
struct Sub {
    /// The key an undrained duplicate aliases on: set for every
    /// submission that missed the cache while caching is on, screened
    /// ones included.
    owner_key: Option<Vec<i64>>,
    /// Drains made before this submission.
    epoch: usize,
    state: SubState,
}

#[derive(Debug)]
enum SubState {
    /// Known at submit time: a hit, a screened answer or a primed value.
    Ready(f64),
    /// Duplicate of the undrained submission at this index.
    Alias(usize),
    /// Evaluated at the drain that covers it.
    Miss(Vec<f64>),
    /// Drained with this value.
    Drained(f64),
}

/// How often the reference took the paths a schedule should exercise.
#[derive(Debug, Default)]
struct Coverage {
    hits: u64,
    /// Aliases whose target was submitted before an earlier drain.
    late_aliases: u64,
    evictions: u64,
    tainted: u64,
}

/// The reference: the session's documented semantics over a
/// linear-scan LRU (front = most recently used).
struct Model {
    capacity: usize,
    shared: bool,
    screen: bool,
    lru: Vec<(Vec<i64>, f64)>,
    subs: Vec<Sub>,
    drained: usize,
    drains: Vec<(Vec<u64>, EngineStats)>,
    stats: EngineStats,
    store: SharedCacheStats,
    calls: Vec<Vec<u64>>,
    seen: Coverage,
}

impl Model {
    fn new(s: &Schedule) -> Self {
        Model {
            capacity: s.capacity,
            shared: s.shared,
            screen: s.screen,
            lru: Vec::new(),
            subs: Vec::new(),
            drained: 0,
            drains: Vec::new(),
            stats: EngineStats::default(),
            store: SharedCacheStats::default(),
            calls: Vec::new(),
            seen: Coverage::default(),
        }
    }

    fn caching(&self) -> bool {
        self.shared || self.capacity > 0
    }

    fn new_session(&mut self) {
        self.subs.clear();
        self.drained = 0;
    }

    fn push(&mut self, owner_key: Option<Vec<i64>>, state: SubState) {
        let epoch = self.drains.len();
        self.subs.push(Sub {
            owner_key,
            epoch,
            state,
        });
    }

    fn submit(&mut self, genes: &[f64]) {
        self.stats.candidates += 1;
        let mut owner_key = None;
        if self.caching() {
            let key = quantize(genes);
            if let Some(pos) = self.lru.iter().position(|(k, _)| *k == key) {
                let entry = self.lru.remove(pos);
                let value = entry.1;
                self.lru.insert(0, entry);
                self.stats.cache_hits += 1;
                self.store.hits += 1;
                self.seen.hits += 1;
                self.push(None, SubState::Ready(value));
                return;
            }
            self.store.misses += 1;
            let owner = self.subs[self.drained..]
                .iter()
                .position(|s| s.owner_key.as_ref() == Some(&key));
            if let Some(pos) = owner {
                let target = self.drained + pos;
                self.stats.cache_hits += 1;
                if self.subs[target].epoch < self.drains.len() {
                    self.seen.late_aliases += 1;
                }
                self.push(None, SubState::Alias(target));
                return;
            }
            owner_key = Some(key);
        }
        let screened = if self.screen {
            model_screen(genes)
        } else {
            None
        };
        let state = match screened {
            Some(value) => {
                self.stats.screened += 1;
                SubState::Ready(value)
            }
            None => {
                self.stats.evaluations += 1;
                SubState::Miss(genes.to_vec())
            }
        };
        self.push(owner_key, state);
    }

    fn prime(&mut self, value: f64) {
        self.push(None, SubState::Ready(value));
    }

    fn put(&mut self, key: Vec<i64>, value: f64) {
        self.store.inserts += 1;
        if let Some(pos) = self.lru.iter().position(|(k, _)| *k == key) {
            self.lru.remove(pos);
        } else if self.lru.len() >= self.capacity {
            self.lru.pop();
            self.seen.evictions += 1;
        }
        self.lru.insert(0, (key, value));
    }

    fn drain(&mut self, count: usize) {
        let count = count.min(self.subs.len() - self.drained);
        let (lo, hi) = (self.drained, self.drained + count);
        self.stats.batches += 1;
        self.stats.max_batch = self.stats.max_batch.max(count as u64);
        let mut out = Vec::with_capacity(count);
        for i in lo..hi {
            let value = match &self.subs[i].state {
                SubState::Ready(v) => *v,
                SubState::Alias(m) => match self.subs[*m].state {
                    SubState::Drained(v) => v,
                    _ => unreachable!("an alias drains after its target"),
                },
                SubState::Miss(genes) => {
                    self.calls.push(bits(genes));
                    let v = model_eval(genes);
                    if v.is_finite() {
                        if let Some(key) = self.subs[i].owner_key.clone() {
                            self.put(key, v);
                        }
                    } else {
                        self.seen.tainted += 1;
                    }
                    v
                }
                SubState::Drained(_) => unreachable!("drained twice"),
            };
            self.subs[i].state = SubState::Drained(value);
            out.push(value);
        }
        self.drained = hi;
        self.drains.push((bits(&out), self.stats.clone()));
    }

    fn run_ops(&mut self, s: &Schedule) {
        for op in &s.ops {
            match op {
                Op::Submit(genes) => self.submit(genes),
                Op::Prime(v) => self.prime(*v),
                Op::Drain(n) => self.drain(*n),
                Op::DrainAll => self.drain(usize::MAX),
                Op::NewSession => self.new_session(),
            }
        }
    }

    fn run(mut self, s: &Schedule) -> Observed {
        self.run_ops(s);
        Observed {
            drains: self.drains,
            stats: self.stats,
            calls: self.calls,
            lru: self
                .lru
                .iter()
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect(),
            shared: self.shared.then_some(self.store),
        }
    }
}

fn run_engine(s: &Schedule, kind: EvaluatorKind) -> Observed {
    let calls = Mutex::new(Vec::new());
    let eval = |genes: &[f64]| {
        calls.lock().unwrap().push(bits(genes));
        model_eval(genes)
    };
    let mut config = EngineConfig::default().evaluator(kind);
    if !s.shared {
        config = config.cache_capacity(s.capacity);
    }
    let mut engine: ExecutionEngine<f64> = ExecutionEngine::new(config);
    if s.shared {
        engine.attach_shared_cache(SharedCache::with_capacity(s.capacity));
    }
    if s.screen {
        engine.attach_screen(SurrogateScreen::new("model", model_screen));
    }
    let mut drains = Vec::new();
    for segment in s.ops.split(|op| matches!(op, Op::NewSession)) {
        engine.with_session(&eval, |session| {
            for op in segment {
                let out = match op {
                    Op::Submit(genes) => {
                        session.submit(genes);
                        continue;
                    }
                    Op::Prime(v) => {
                        session.prime(*v);
                        continue;
                    }
                    Op::Drain(n) => session.drain(*n),
                    Op::DrainAll => session.drain_all(),
                    Op::NewSession => unreachable!("split at session boundaries"),
                };
                let out = out.expect("no evaluation fails in the model");
                drains.push((bits(&out), counters(session.stats())));
            }
        });
    }
    let lru = match engine.shared_cache() {
        Some(shared) => shared.lru_entries(),
        None => engine.cache.lru_entries(),
    };
    Observed {
        drains,
        stats: counters(engine.stats()),
        calls: calls.into_inner().unwrap(),
        lru: lru.into_iter().map(|(k, v)| (k, v.to_bits())).collect(),
        shared: engine.shared_cache().map(SharedCache::stats),
    }
}

fn check_schedules(test: &str, schedules: usize) {
    let mut rng = proptest::runner_rng(test);
    let strategy = schedule();
    for case in 0..schedules {
        let s = strategy.generate(&mut rng);
        let expected = Model::new(&s).run(&s);
        let serial = run_engine(&s, EvaluatorKind::Serial);
        assert_eq!(serial, expected, "case {case}, serial: {s:?}");
        let mut parallel = run_engine(&s, EvaluatorKind::ParallelWith(2));
        // Workers call the evaluator in no fixed order, and may or may
        // not reach submissions a closed session abandoned.
        parallel.calls = expected.calls.clone();
        assert_eq!(parallel, expected, "case {case}, 2 workers: {s:?}");
    }
}

#[test]
fn sessions_match_the_reference_model() {
    check_schedules("engine::session_model::short", 192);
}

#[test]
#[ignore = "long form, about 20,000 schedules: run in release with --ignored"]
fn sessions_match_the_reference_model_long() {
    check_schedules("engine::session_model::long", 20_000);
}

#[test]
fn the_schedules_exercise_every_path() {
    // The palette and op mix must keep producing hits, aliases across
    // drain boundaries, evictions, screened owners and tainted values.
    let mut rng = proptest::runner_rng("engine::session_model::short");
    let strategy = schedule();
    let mut seen = Coverage::default();
    let mut screened = 0;
    for _ in 0..192 {
        let s = strategy.generate(&mut rng);
        let mut model = Model::new(&s);
        model.run_ops(&s);
        screened += model.stats.screened;
        seen.hits += model.seen.hits;
        seen.late_aliases += model.seen.late_aliases;
        seen.evictions += model.seen.evictions;
        seen.tainted += model.seen.tainted;
    }
    assert!(seen.hits > 100, "{seen:?}");
    assert!(seen.late_aliases > 20, "{seen:?}");
    assert!(seen.evictions > 20, "{seen:?}");
    assert!(seen.tainted > 20, "{seen:?}");
    assert!(screened > 20, "{screened} screened");
}
