//! Property-based tests of the SACGA machinery invariants.

use engine::{EngineConfig, EvalOutcome, ExecutionEngine, ExhaustedAction, FaultPlan, FaultPolicy};
use moea::evaluation::Evaluation;
use moea::individual::Individual;
use moea::problems::Schaffer;
use moea::{EngineSetup, RunStatus};
use proptest::prelude::*;
use sacga::anneal::{AnnealingSchedule, ProbabilityShaper, PromotionPolicy};
use sacga::partition::{PartitionGrid, PartitionedPopulation};
use sacga::sacga::{Sacga, SacgaConfig};
use sacga::steady::{SteadyConfig, SteadySacga};
use sacga::telemetry::Optimizer;
use sacga::topology::Topology;
use std::cell::Cell;

/// Realizes one of the four topology families from flat proptest
/// parameters, always structurally valid: `kind` selects the family,
/// `size` and `radius` are folded into that family's legal range.
fn arb_topology(kind: usize, size: usize, radius: usize, seed: u64) -> Topology {
    match kind % 4 {
        0 => {
            let cells = 3 + size % 14; // 3..=16
            Topology::Ring {
                cells,
                radius: 1 + radius % ((cells - 1) / 2).max(1),
            }
        }
        1 => Topology::Torus {
            rows: 2 + size % 4,
            cols: 2 + (size / 4) % 4,
            radius: 1 + radius % 3,
        },
        2 => Topology::FullyConnected {
            cells: 2 + size % 15,
        },
        _ => {
            let cells = 3 + size % 14;
            Topology::SmallWorld {
                cells,
                radius: 1 + radius % ((cells - 1) / 2).max(1),
                chords: 1 + size % 5,
                seed,
            }
        }
    }
}

proptest! {
    #[test]
    fn temperature_is_monotone_and_bounded(
        t_init in 1.5f64..1e5,
        span in 1usize..500,
        g1 in 0usize..500,
        g2 in 0usize..500,
    ) {
        let s = AnnealingSchedule::new(t_init, 1.0, span).unwrap();
        let (lo, hi) = (g1.min(g2), g1.max(g2));
        let (t_lo, t_hi) = (s.temperature(hi), s.temperature(lo));
        prop_assert!(t_lo <= t_hi + 1e-9);
        prop_assert!(s.temperature(0) <= t_init * (1.0 + 1e-12));
        // fully cooled value is 1 for k3 = 1
        prop_assert!((s.temperature(span) - 1.0).abs() < 1e-6 * t_init.max(1.0));
    }

    #[test]
    fn promotion_probability_laws(
        k2 in 0.0f64..5.0,
        alpha in 0.01f64..10.0,
        n in 2usize..12,
        temp in 1.0f64..1e4,
    ) {
        let p = PromotionPolicy::new(1.0, k2, alpha, n).unwrap();
        let mut prev = f64::INFINITY;
        for i in 1..=n {
            let pr = p.probability(i, temp);
            prop_assert!((0.0..=1.0).contains(&pr));
            prop_assert!(pr <= prev + 1e-12, "prob must fall with i");
            prev = pr;
        }
        // cooling raises every probability
        for i in 1..=n {
            prop_assert!(p.probability(i, temp) <= p.probability(i, 1.0) + 1e-12);
        }
    }

    #[test]
    fn shaper_solves_exactly_for_valid_targets(
        p_mid_last in 0.02f64..0.4,
        gap in 0.05f64..0.5,
        end_gap in 0.05f64..0.5,
        n in 2usize..10,
        span in 2usize..400,
    ) {
        let p_mid_first = (p_mid_last + gap).min(0.97);
        let p_end_last = (p_mid_last + end_gap).min(0.97);
        prop_assume!(p_mid_first > p_mid_last && p_end_last > p_mid_last);
        let shaper = ProbabilityShaper::new(p_mid_first, p_mid_last, p_end_last).unwrap();
        let (policy, schedule) = shaper.solve(n, span).unwrap();
        let t_mid = schedule.t_init.sqrt();
        prop_assert!((policy.probability(1, t_mid) - p_mid_first).abs() < 1e-6);
        prop_assert!((policy.probability(n, t_mid) - p_mid_last).abs() < 1e-6);
        prop_assert!((policy.probability(n, 1.0) - p_end_last).abs() < 1e-6);
    }

    #[test]
    fn partition_of_is_total_and_ordered(
        lo in -100.0f64..0.0,
        width in 0.1f64..100.0,
        m in 1usize..40,
        v1 in -200.0f64..200.0,
        v2 in -200.0f64..200.0,
    ) {
        let grid = PartitionGrid::new(0, lo, lo + width, m).unwrap();
        let p1 = grid.partition_of(&[v1]);
        let p2 = grid.partition_of(&[v2]);
        prop_assert!(p1 < m && p2 < m);
        if v1 <= v2 {
            prop_assert!(p1 <= p2, "partition index must be monotone in value");
        }
    }

    #[test]
    fn slice_ranges_tile_without_gaps(
        lo in -10.0f64..10.0,
        width in 0.5f64..50.0,
        m in 1usize..30,
    ) {
        let grid = PartitionGrid::new(0, lo, lo + width, m).unwrap();
        let mut edge = lo;
        for p in 0..m {
            let (a, b) = grid.slice_range(p);
            prop_assert!((a - edge).abs() < 1e-9 * width.max(1.0));
            prop_assert!(b > a);
            edge = b;
        }
        prop_assert!((edge - (lo + width)).abs() < 1e-9 * width.max(1.0));
    }

    #[test]
    fn interior_values_land_in_their_slice(
        m in 1usize..25,
        t in 0.001f64..0.999,
    ) {
        let grid = PartitionGrid::new(0, 0.0, 1.0, m).unwrap();
        let p = grid.partition_of(&[t]);
        let (a, b) = grid.slice_range(p);
        prop_assert!(t >= a - 1e-12 && t < b + 1e-12, "{t} not in [{a}, {b})");
    }

    #[test]
    fn boundary_values_belong_to_exactly_one_partition(
        lo in -50.0f64..50.0,
        width in 0.5f64..60.0,
        m in 2usize..32,
        p in 0usize..31,
    ) {
        // A solution sitting exactly on a slice boundary must be assigned
        // to exactly one partition — one of the two slices meeting there,
        // never a third, and deterministically.
        prop_assume!(p + 1 < m);
        let grid = PartitionGrid::new(0, lo, lo + width, m).unwrap();
        let (_, edge) = grid.slice_range(p);
        let q = grid.partition_of(&[edge]);
        prop_assert!(q < m);
        prop_assert!(q == p || q == p + 1, "boundary {edge} routed to distant slice {q}");
        prop_assert_eq!(grid.partition_of(&[edge]), q, "assignment must be a function");
        // Distributing duplicates of the boundary value puts every copy in
        // that one partition and loses / double-counts nobody.
        let pop: Vec<Individual> = (0..3)
            .map(|_| Individual::new(vec![0.0], Evaluation::unconstrained(vec![edge])))
            .collect();
        let pp = PartitionedPopulation::distribute(grid, pop);
        let total: usize = (0..m).map(|i| pp.partition(i).len()).sum();
        prop_assert_eq!(total, 3);
        prop_assert_eq!(pp.partition(q).len(), 3);
    }

    #[test]
    fn expanding_partition_schemes_tile_for_arbitrary_m(
        lo in -20.0f64..20.0,
        width in 0.5f64..40.0,
        ms in prop::collection::vec(1usize..40, 1..6),
        values in prop::collection::vec(0.0f64..1.0, 1..20),
    ) {
        // MESACGA regrids the same objective range through an arbitrary
        // partition-count schedule; every grid in the schedule must cover
        // the range with adjacent, gap-free, overlap-free slices, and
        // regridding must conserve the population exactly.
        let hi = lo + width;
        let pop: Vec<Individual> = values
            .iter()
            .map(|t| Individual::new(vec![0.0], Evaluation::unconstrained(vec![lo + t * width])))
            .collect();
        let mut pp = PartitionedPopulation::distribute(
            PartitionGrid::new(0, lo, hi, 1).unwrap(),
            pop,
        );
        for &m in &ms {
            let grid = pp.grid().with_partitions(m).unwrap();
            let mut edge = lo;
            for p in 0..m {
                let (a, b) = grid.slice_range(p);
                prop_assert!((a - edge).abs() <= 1e-9 * width.max(1.0), "gap/overlap at slice {p}");
                prop_assert!(b > a, "slice {p} must have positive width");
                edge = b;
            }
            prop_assert!((edge - hi).abs() <= 1e-9 * width.max(1.0), "last slice must end at hi");
            prop_assert_eq!(grid.partition_of(&[lo]), 0);
            prop_assert_eq!(grid.partition_of(&[hi]), m - 1);
            pp = pp.regrid(grid);
            let total: usize = (0..m).map(|i| pp.partition(i).len()).sum();
            prop_assert_eq!(total, values.len(), "regrid to m = {} lost or duplicated members", m);
        }
    }

    // ---- annealing edge cases ----

    #[test]
    fn span_one_schedule_cools_in_a_single_step(
        t_init in 1.0001f64..1e6,
        k3 in 0.1f64..3.0,
    ) {
        let s = AnnealingSchedule::new(t_init, k3, 1).unwrap();
        prop_assert!((s.temperature(0) - t_init).abs() <= 1e-9 * t_init);
        let cooled = s.temperature(1);
        let expected = t_init.powf(1.0 - k3);
        prop_assert!(
            (cooled - expected).abs() <= 1e-6 * expected.max(1.0),
            "span-1 schedule must land on t_init^(1-k3): {cooled} vs {expected}"
        );
        // elapsed time beyond the span clamps to the fully cooled value
        prop_assert_eq!(s.temperature(100), cooled);
    }

    #[test]
    fn near_degenerate_t_init_keeps_temperatures_finite_and_bounded(
        eps_exp in 1i32..14,
        span in 1usize..100,
        g in 0usize..200,
    ) {
        // t_init barely above its lower bound of 1: ln(t_init) → 0 and the
        // schedule must stay finite and squeezed into [1, t_init].
        let t_init = 1.0 + 10f64.powi(-eps_exp);
        prop_assume!(t_init > 1.0);
        let s = AnnealingSchedule::new(t_init, 1.0, span).unwrap();
        let t = s.temperature(g);
        prop_assert!(t.is_finite());
        prop_assert!(t >= 1.0 - 1e-12 && t <= t_init + 1e-12, "T = {t} outside [1, {t_init}]");
    }

    #[test]
    fn promotion_cost_is_positive_and_monotone_in_rank(
        k1 in 0.001f64..100.0,
        k2 in 0.0f64..6.0,
        n in 2usize..16,
    ) {
        let p = PromotionPolicy::new(k1, k2, 1.0, n).unwrap();
        let mut prev = 0.0;
        for i in 1..=n {
            let c = p.cost(i);
            prop_assert!(c.is_finite() && c > 0.0);
            prop_assert!(c >= prev, "cost must be non-decreasing in i: c({i}) = {c} < {prev}");
            prev = c;
        }
        let expected_first = k1 * (k2 / (n as f64 - 1.0)).exp();
        prop_assert!((p.cost(1) - expected_first).abs() <= 1e-9 * expected_first.max(1.0));
    }

    // ---- fault-tolerance layer ----

    #[test]
    fn retry_never_exceeds_max_attempts(
        max_attempts in 1u32..6,
        faults in 0u32..8,
    ) {
        let policy = FaultPolicy::default()
            .max_attempts(max_attempts)
            .quarantine_nonfinite(true)
            .on_exhausted(ExhaustedAction::Quarantine);
        let calls = Cell::new(0u32);
        let eval = |genes: &[f64]| {
            let n = calls.get();
            calls.set(n + 1);
            if n < faults { f64::NAN } else { genes[0] * 2.0 }
        };
        let outcome = policy.execute(&eval, &[1.5]);
        prop_assert!(calls.get() <= max_attempts.max(1), "attempts exceeded budget");
        match outcome {
            EvalOutcome::Ok(v) => {
                prop_assert_eq!(faults, 0);
                prop_assert_eq!(v, 3.0);
            }
            EvalOutcome::Recovered { value, failures, .. } => {
                prop_assert!(faults >= 1 && faults < max_attempts);
                prop_assert_eq!(failures, faults);
                prop_assert_eq!(value, 3.0);
            }
            EvalOutcome::Quarantined { value, failures, .. } => {
                prop_assert!(faults >= max_attempts);
                prop_assert_eq!(failures, max_attempts);
                prop_assert!(!value.is_finite(), "placeholder must be worst-case");
            }
            EvalOutcome::Failed(_) => prop_assert!(false, "quarantine policy must not abort"),
        }
    }

    #[test]
    fn fault_injected_sacga_recovers_to_the_fault_free_front(
        seed in 0u64..1000,
        plan_seed in 0u64..1000,
        panic_pct in 0u32..12,
        nan_pct in 0u32..12,
    ) {
        let base = SacgaConfig::builder()
            .population_size(16)
            .generations(6)
            .partitions(3);
        let clean = Sacga::new(Schaffer::new(), base.clone().build().unwrap())
            .run_seeded(seed)
            .unwrap();
        let plan = FaultPlan::seeded(plan_seed)
            .panics(f64::from(panic_pct) / 100.0)
            .nonfinite(f64::from(nan_pct) / 100.0);
        let faulty_cfg = base
            .engine_setup(
                EngineSetup::new()
                    .fault_policy(FaultPolicy::tolerant(4))
                    .inject_faults(plan),
            )
            .build()
            .unwrap();
        let faulty = Sacga::new(Schaffer::new(), faulty_cfg).run_seeded(seed).unwrap();
        prop_assert_eq!(clean.front_objectives(), faulty.front_objectives());
        prop_assert_eq!(
            faulty.stats.failures,
            faulty.stats.injected_panics + faulty.stats.injected_nonfinite
        );
        prop_assert_eq!(faulty.stats.recovered, faulty.stats.failures);
        prop_assert_eq!(faulty.stats.quarantined, 0);
    }

    #[test]
    fn memo_cache_never_stores_quarantined_results(
        nan_pct in 5u32..60,
        plan_seed in 0u64..500,
        batch_len in 4usize..40,
    ) {
        // Every fault-selected candidate stays non-finite on all attempts,
        // so it ends quarantined; the cache must keep refusing it while
        // serving the clean candidates.
        let config = EngineConfig::default()
            .cache_capacity(1024)
            .fault_policy(FaultPolicy::tolerant(2))
            .inject_faults(
                FaultPlan::seeded(plan_seed)
                    .nonfinite(f64::from(nan_pct) / 100.0)
                    .faults_per_candidate(u32::MAX),
            );
        let mut exec: ExecutionEngine<f64> = ExecutionEngine::new(config);
        let batch: Vec<Vec<f64>> = (0..batch_len).map(|i| vec![i as f64 * 0.37 + 0.1]).collect();
        let eval = |genes: &[f64]| genes[0] + 1.0;

        let first = exec.try_evaluate_batch(&batch, &eval).unwrap();
        let q1 = exec.stats().quarantined;
        prop_assert_eq!(exec.stats().cache_hits, 0);

        let second = exec.try_evaluate_batch(&batch, &eval).unwrap();
        // Clean results were cached; quarantined ones were re-evaluated
        // (and quarantined again), never answered from the cache.
        prop_assert_eq!(exec.stats().quarantined, 2 * q1);
        prop_assert_eq!(exec.stats().cache_hits, batch_len as u64 - q1);
        for (a, b) in first.iter().zip(&second) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let tainted = first.iter().filter(|v| !v.is_finite()).count() as u64;
        prop_assert_eq!(tainted, q1);
    }

    // ---- steady-state SACGA ----

    #[test]
    fn steady_merges_are_deterministic_across_worker_counts(
        seed in 0u64..1000,
        pop_half in 4usize..10,
        gens in 2usize..7,
        partitions in 1usize..5,
        window_extra in 0usize..24,
        quantum in 1usize..24,
    ) {
        // Completions are applied in submission-index order, so a seeded
        // steady run must be bit-identical however many workers race on
        // the evaluations.
        let pop = pop_half * 2;
        let make = |threads: usize| {
            let mut b = SteadyConfig::builder()
                .population_size(pop)
                .generations(gens)
                .partitions(partitions)
                .window(2 + window_extra)
                .quantum(quantum);
            if threads > 0 {
                let parallel = engine::EvaluatorKind::ParallelWith(threads);
                b = b.engine_setup(EngineSetup::new().evaluator(parallel));
            }
            SteadySacga::new(Schaffer::new(), b.build().unwrap())
        };
        let serial = make(0).run_seeded(seed).unwrap();
        for threads in [2usize, 4] {
            let parallel = make(threads).run_seeded(seed).unwrap();
            prop_assert_eq!(&serial.front_objectives(), &parallel.front_objectives());
            prop_assert_eq!(&serial.history, &parallel.history);
            let genes = |r: &moea::RunOutcome| r
                .population
                .iter()
                .map(|m| m.genes.clone())
                .collect::<Vec<_>>();
            prop_assert_eq!(genes(&serial), genes(&parallel), "{} workers diverged", threads);
        }
    }

    #[test]
    fn steady_kill_resume_at_any_boundary_is_lossless(
        seed in 0u64..1000,
        pop_half in 4usize..10,
        gens in 2usize..8,
        partitions in 1usize..5,
        window_extra in 0usize..24,
        quantum in 1usize..24,
        stop_frac in 0.0f64..1.0,
    ) {
        // Suspending at an arbitrary generation boundary — with the
        // look-ahead mid-flight — and resuming from the checkpoint text
        // must reproduce the uninterrupted run bit for bit.
        let pop = pop_half * 2;
        let config = SteadyConfig::builder()
            .population_size(pop)
            .generations(gens)
            .partitions(partitions)
            .window(2 + window_extra)
            .quantum(quantum)
            .build()
            .unwrap();
        let ga = SteadySacga::new(Schaffer::new(), config);
        let full = ga.run_seeded(seed).unwrap();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let stop = ((gens as f64) * stop_frac) as usize;
        // stop_frac < 1.0, so stop < gens and the run must suspend.
        let cp = match ga.run_until(seed, stop).unwrap() {
            RunStatus::Suspended(cp) => cp,
            RunStatus::Complete(_) => panic!("stop {stop} < gens {gens} must suspend"),
        };
        prop_assert_eq!(cp.state.gen, stop);
        let restored = sacga::SteadyCheckpoint::from_text(&cp.to_text()).unwrap();
        prop_assert_eq!(&restored, &*cp);
        let resumed = ga.resume(&restored).unwrap();
        prop_assert_eq!(resumed.front_objectives(), full.front_objectives());
        prop_assert_eq!(&resumed.history, &full.history);
        prop_assert_eq!(resumed.gen_t, full.gen_t);
        let scrub = |mut s: engine::EngineStats| {
            s.eval_time = std::time::Duration::ZERO;
            s.backoff_time = std::time::Duration::ZERO;
            s
        };
        prop_assert_eq!(scrub(resumed.stats), scrub(full.stats));
    }

    #[test]
    fn topology_neighborhoods_are_symmetric_self_free_and_connected(
        kind in 0usize..4,
        size in 0usize..64,
        radius in 0usize..8,
        seed in 0u64..1000,
    ) {
        let topo = arb_topology(kind, size, radius, seed);
        prop_assert!(topo.validate().is_ok(), "{topo:?}");
        let k = topo.cells();
        for i in 0..k {
            let n = topo.neighbors(i);
            prop_assert!(!n.contains(&i), "{topo:?}: cell {i} neighbors itself");
            // No duplicate edges out of one cell.
            let mut dedup = n.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), n.len(), "{:?}: duplicate neighbor of {}", &topo, i);
            // Symmetry: j sees i whenever i sees j.
            for &j in &n {
                prop_assert!(j < k, "{topo:?}: out-of-range neighbor {j}");
                prop_assert!(
                    topo.neighbors(j).contains(&i),
                    "{topo:?}: edge {i}->{j} has no reverse"
                );
            }
            // The forward/backward split is a partition of the
            // neighborhood.
            let (fwd, bwd) = topo.orientation(i);
            let mut both = fwd;
            both.extend(bwd);
            both.sort_unstable();
            let mut all = n.clone();
            all.sort_unstable();
            prop_assert_eq!(both, all, "{:?}: orientation is not a partition", &topo);
        }
        prop_assert!(topo.is_connected(), "{topo:?} is disconnected");
    }

    #[test]
    fn migration_conserves_every_cell_population(
        kind in 0usize..4,
        size in 0usize..64,
        radius in 0usize..8,
        seed in 0u64..1000,
        migrants in 1usize..4,
        capacity_extra in 0usize..5,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let topo = arb_topology(kind, size, radius, seed);
        let k = topo.cells();
        let capacity = 4 + capacity_extra.max(migrants); // migrants < capacity
        let mut rng = StdRng::seed_from_u64(seed);
        // Random two-objective cells, ranked the way a live run's are.
        let mut cells: Vec<Vec<Individual>> = (0..k)
            .map(|_| {
                let mut cell: Vec<Individual> = (0..capacity)
                    .map(|_| {
                        let g = rng.gen::<f64>() * 4.0 - 2.0;
                        Individual::new(
                            vec![g],
                            Evaluation::new(vec![g * g, (g - 2.0) * (g - 2.0)], vec![]),
                        )
                    })
                    .collect();
                moea::sorting::rank_and_crowd(&mut cell);
                cell
            })
            .collect();
        let adjacency: Vec<Vec<usize>> = (0..k).map(|i| topo.neighbors(i)).collect();
        let (migrated, candidates) =
            sacga::cellular::migrate(&mut cells, &adjacency, migrants, capacity, &mut rng);
        prop_assert_eq!(migrated, k * migrants);
        prop_assert!(candidates >= k, "each cell offers at least one candidate");
        // Conservation: selection absorbs every delivery back to
        // exactly `capacity` members per cell.
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(cell.len(), capacity, "cell {} size drifted", i);
        }
    }
}
