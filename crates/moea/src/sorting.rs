//! Fast non-dominated sorting and crowding-distance assignment
//! (Deb et al., NSGA-II).

use crate::individual::Individual;
use std::cmp::Ordering;

/// Result of a non-dominated sort: fronts of indices into the sorted slice,
/// front 0 being the non-dominated set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fronts {
    fronts: Vec<Vec<usize>>,
}

impl Fronts {
    /// The fronts, best (rank 0) first.
    pub fn as_slice(&self) -> &[Vec<usize>] {
        &self.fronts
    }

    /// Number of fronts.
    pub fn len(&self) -> usize {
        self.fronts.len()
    }

    /// `true` when the sorted set was empty.
    pub fn is_empty(&self) -> bool {
        self.fronts.is_empty()
    }

    /// Indices of the rank-0 (non-dominated) front.
    ///
    /// # Panics
    ///
    /// Panics if the sorted set was empty.
    pub fn best(&self) -> &[usize] {
        &self.fronts[0]
    }

    /// Iterates over fronts.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<usize>> {
        self.fronts.iter()
    }
}

/// Fast non-dominated sort under **constrained dominance**, writing `rank`
/// into each individual and returning the fronts.
///
/// Ranks and fronts are those of Deb's peel (NSGA-II), computed without
/// storing a single dominance relation. Every dominator sorts before what
/// it dominates when the members are ordered by class (clean feasible,
/// feasible with a NaN objective, infeasible), clean feasible members by
/// their objectives lexicographically and infeasible ones by violation.
/// In that order a clean member's rank is one more than the highest rank
/// among the members before it that dominate it (0 when none do); that
/// reduction over a flat objective array is the `O(M·N²)` part, with no
/// per-relation bookkeeping. A feasible member with a NaN objective is
/// dominated by every clean one, and infeasible members rank above every
/// feasible rank, one rank per distinct violation.
///
/// Front order: front 0 lists its members in ascending index order; a
/// member of front `r + 1` is listed by the position, in front `r`, of
/// the last of its dominators there, ties by index. That is the order in
/// which the peel reaches them, and crowding and truncation ties depend
/// on it.
///
/// Individuals' `crowding` fields are left untouched; call
/// [`assign_crowding`] per front afterwards (or use [`rank_and_crowd`]).
///
/// # Panics
///
/// Panics if the members' objective counts differ.
pub fn fast_non_dominated_sort(pop: &mut [Individual]) -> Fronts {
    let n = pop.len();
    if n == 0 {
        return Fronts { fronts: Vec::new() };
    }
    let m = pop[0].objectives().len();
    let mut clean: Vec<usize> = Vec::with_capacity(n);
    let mut broken: Vec<usize> = Vec::new();
    let mut infeasible: Vec<(f64, usize)> = Vec::new();
    for (i, ind) in pop.iter().enumerate() {
        assert_eq!(ind.objectives().len(), m, "objective dimension mismatch");
        if !ind.is_feasible() {
            infeasible.push((ind.total_violation(), i));
        } else if ind.objectives().iter().any(|v| v.is_nan()) {
            broken.push(i);
        } else {
            clean.push(i);
        }
    }

    clean.sort_unstable_by(|&a, &b| lexicographic(pop[a].objectives(), pop[b].objectives()));
    let mut objs: Vec<f64> = Vec::with_capacity(clean.len() * m);
    for &i in &clean {
        objs.extend_from_slice(pop[i].objectives());
    }
    let mut chain = vec![0u32; clean.len()];
    match m {
        0 => {}
        2 => longest_chains_fixed(objs.as_chunks::<2>().0, &mut chain),
        _ => longest_chains(&objs, m, &mut chain),
    }
    let mut levels = 0;
    for (&i, &r) in clean.iter().zip(&chain) {
        let r = r as usize;
        pop[i].rank = r;
        levels = levels.max(r + 1);
    }
    let clean_levels = levels;

    // Every clean vector dominates a NaN-carrying one, and two of those
    // are incomparable.
    if !broken.is_empty() {
        for &i in &broken {
            pop[i].rank = levels;
        }
        levels += 1;
    }

    // Infeasible: the smaller violation dominates, equal ones tie.
    // `Evaluation` never holds a NaN violation.
    infeasible.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut last = None;
    for &(v, i) in &infeasible {
        if last != Some(v) {
            levels += 1;
            last = Some(v);
        }
        pop[i].rank = levels - 1;
    }

    let mut sizes = vec![0usize; levels];
    for ind in pop.iter() {
        sizes[ind.rank] += 1;
    }
    let mut fronts: Vec<Vec<usize>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (i, ind) in pop.iter().enumerate() {
        fronts[ind.rank].push(i);
    }
    // Past front 0, only clean fronts need reordering: the last member of
    // the front before a NaN or infeasible front dominates all of it.
    for r in 1..clean_levels {
        let (done, rest) = fronts.split_at_mut(r);
        let prev = &done[r - 1];
        rest[0].sort_by_cached_key(|&b| {
            let ob = pop[b].objectives();
            prev.iter()
                .rposition(|&a| dominates_clean(pop[a].objectives(), ob))
                .expect("a member of front r + 1 has a dominator in front r")
        });
    }
    Fronts { fronts }
}

/// Lexicographic order of NaN-free vectors under `<`, so −0.0 ties 0.0
/// as it does in dominance (`total_cmp` would put some dominators after
/// the vectors they dominate). A dominator always sorts first.
fn lexicographic(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return Ordering::Less;
        }
        if x > y {
            return Ordering::Greater;
        }
    }
    Ordering::Equal
}

/// `true` when `a` Pareto-dominates `b`, for NaN-free vectors.
fn dominates_clean(a: &[f64], b: &[f64]) -> bool {
    let mut no_worse = true;
    let mut better = false;
    for (&x, &y) in a.iter().zip(b) {
        no_worse &= x <= y;
        better |= x < y;
    }
    no_worse & better
}

/// Longest dominance chain ending at each row, for NaN-free rows in an
/// order where every dominator comes first: `chain[b]` is the largest
/// `chain[a] + 1` over the rows `a < b` that dominate row `b`, or 0.
/// Branch-free, and with the width a compile-time constant the pair loop
/// vectorizes; the 2-objective instance serves every benchmark workload
/// and the paper's problem.
fn longest_chains_fixed<const M: usize>(rows: &[[f64; M]], chain: &mut [u32]) {
    for b in 1..rows.len() {
        let (before, rest) = chain.split_at_mut(b);
        let row = rows[b];
        let mut rank = 0;
        for (a, &a_rank) in rows.iter().zip(before.iter()) {
            let mut no_worse = true;
            let mut better = false;
            for k in 0..M {
                no_worse &= a[k] <= row[k];
                better |= a[k] < row[k];
            }
            rank = rank.max((a_rank + 1) * u32::from(no_worse & better));
        }
        rest[0] = rank;
    }
}

/// [`longest_chains_fixed`] for rows of `m` objectives, `m` known only
/// at run time.
fn longest_chains(objs: &[f64], m: usize, chain: &mut [u32]) {
    for b in 1..chain.len() {
        let (before, rest) = chain.split_at_mut(b);
        let row = &objs[b * m..(b + 1) * m];
        let mut rank = 0;
        for (a, &a_rank) in objs.chunks_exact(m).zip(before.iter()) {
            rank = rank.max((a_rank + 1) * u32::from(dominates_clean(a, row)));
        }
        rest[0] = rank;
    }
}

/// Assigns NSGA-II crowding distances to the individuals referenced by
/// `front` (indices into `pop`).
///
/// Boundary individuals in each objective get `f64::INFINITY`. Objectives
/// with zero range contribute nothing. Fronts of size <= 2 get all-infinite
/// distances.
pub fn assign_crowding(pop: &mut [Individual], front: &[usize]) {
    let m = front.len();
    if m == 0 {
        return;
    }
    for &i in front {
        pop[i].crowding = 0.0;
    }
    if m <= 2 {
        for &i in front {
            pop[i].crowding = f64::INFINITY;
        }
        return;
    }
    let num_objs = pop[front[0]].objectives().len();
    let mut order: Vec<usize> = front.to_vec();
    for k in 0..num_objs {
        order.sort_by(|&a, &b| {
            pop[a]
                .objective(k)
                .partial_cmp(&pop[b].objective(k))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let lo = pop[order[0]].objective(k);
        let hi = pop[order[m - 1]].objective(k);
        pop[order[0]].crowding = f64::INFINITY;
        pop[order[m - 1]].crowding = f64::INFINITY;
        let range = hi - lo;
        if range <= 0.0 || !range.is_finite() {
            continue;
        }
        for w in 1..(m - 1) {
            let prev = pop[order[w - 1]].objective(k);
            let next = pop[order[w + 1]].objective(k);
            let idx = order[w];
            if pop[idx].crowding.is_finite() {
                pop[idx].crowding += (next - prev) / range;
            }
        }
    }
}

/// Convenience: full rank + crowding assignment over a population slice.
///
/// Returns the fronts. Equivalent to [`fast_non_dominated_sort`] followed by
/// [`assign_crowding`] on every front.
pub fn rank_and_crowd(pop: &mut [Individual]) -> Fronts {
    let fronts = fast_non_dominated_sort(pop);
    for front in fronts.iter() {
        assign_crowding(pop, front);
    }
    fronts
}

/// Elitist environmental selection: given a combined parent+offspring
/// population, keep the best `target` individuals by (rank, crowding).
///
/// This is the survivor-selection step of NSGA-II: whole fronts are accepted
/// until one no longer fits; that boundary front is truncated by descending
/// crowding distance. Returns the survivors as a new vector (rank/crowding
/// freshly assigned).
pub fn environmental_selection(mut pop: Vec<Individual>, target: usize) -> Vec<Individual> {
    if pop.len() <= target {
        rank_and_crowd(&mut pop);
        return pop;
    }
    let fronts = rank_and_crowd(&mut pop);
    let mut chosen: Vec<usize> = Vec::with_capacity(target);
    for front in fronts.iter() {
        if chosen.len() + front.len() <= target {
            chosen.extend_from_slice(front);
        } else {
            let mut rest: Vec<usize> = front.clone();
            rest.sort_by(|&a, &b| {
                pop[b]
                    .crowding
                    .partial_cmp(&pop[a].crowding)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            rest.truncate(target - chosen.len());
            chosen.extend(rest);
            break;
        }
    }
    // Extract in index order to keep determinism independent of front layout.
    let mut take = vec![false; pop.len()];
    for &i in &chosen {
        take[i] = true;
    }
    pop.into_iter()
        .zip(take)
        .filter_map(|(ind, keep)| keep.then_some(ind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{constrained_dominates, Dominance};
    use crate::evaluation::Evaluation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Deb's peel as NSGA-II states it: every dominance relation is
    /// stored, then fronts are peeled off by decrementing counts. The
    /// oracle the sort must reproduce, ranks and front order both.
    fn peel(pop: &mut [Individual]) -> Fronts {
        let n = pop.len();
        if n == 0 {
            return Fronts { fronts: Vec::new() };
        }
        let mut dominated_by = vec![0usize; n];
        let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                match constrained_dominates(&pop[i], &pop[j]) {
                    Dominance::First => {
                        dominates_list[i].push(j);
                        dominated_by[j] += 1;
                    }
                    Dominance::Second => {
                        dominates_list[j].push(i);
                        dominated_by[i] += 1;
                    }
                    Dominance::Neither => {}
                }
            }
        }
        let mut fronts: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
        let mut rank = 0usize;
        while !current.is_empty() {
            for &i in &current {
                pop[i].rank = rank;
            }
            let mut next = Vec::new();
            for &i in &current {
                for &j in &dominates_list[i] {
                    dominated_by[j] -= 1;
                    if dominated_by[j] == 0 {
                        next.push(j);
                    }
                }
            }
            fronts.push(std::mem::take(&mut current));
            current = next;
            rank += 1;
        }
        Fronts { fronts }
    }

    /// A random population built to break a sort: a small value palette
    /// (duplicates, exact ties, −0.0 beside 0.0, ±∞) or continuous
    /// layered values, NaN objectives, and infeasible members with equal,
    /// distinct and infinite violations.
    fn adversarial_population(rng: &mut StdRng) -> Vec<Individual> {
        const PALETTE: [f64; 8] = [
            -0.0,
            0.0,
            1.0,
            2.0,
            3.0,
            4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        const VIOLATIONS: [f64; 4] = [0.5, 1.0, 2.0, f64::INFINITY];
        let n: usize = if rng.gen_range(0..10) == 0 {
            rng.gen_range(0..=300)
        } else {
            rng.gen_range(0..=40)
        };
        let m: usize = rng.gen_range(1..=4);
        let style = rng.gen_range(0..3);
        let nan_rate = [0.0, 0.05, 0.3][rng.gen_range(0..3usize)];
        let infeasible_rate = [0.0, 0.1, 0.5, 1.0][rng.gen_range(0..4usize)];
        (0..n)
            .map(|_| {
                let layer = f64::from(rng.gen_range(0..6u32));
                let mut objs: Vec<f64> = (0..m)
                    .map(|_| match style {
                        0 => PALETTE[rng.gen_range(0..PALETTE.len())],
                        1 => layer + rng.gen::<f64>(),
                        _ if rng.gen::<bool>() => PALETTE[rng.gen_range(0..PALETTE.len())],
                        _ => rng.gen::<f64>() * 4.0,
                    })
                    .collect();
                if rng.gen::<f64>() < infeasible_rate {
                    let v = if rng.gen::<bool>() {
                        VIOLATIONS[rng.gen_range(0..VIOLATIONS.len())]
                    } else {
                        rng.gen::<f64>() + f64::MIN_POSITIVE
                    };
                    let other = if rng.gen::<bool>() { 0.0 } else { 0.5 };
                    Individual::new(vec![0.0], Evaluation::new(objs, vec![v, other]))
                } else {
                    if rng.gen::<f64>() < nan_rate {
                        objs[rng.gen_range(0..m)] = f64::NAN;
                    }
                    Individual::new(vec![0.0], Evaluation::unconstrained(objs))
                }
            })
            .collect()
    }

    #[test]
    fn sort_matches_the_peel_on_adversarial_populations() {
        let mut rng = StdRng::seed_from_u64(0x50f7);
        for case in 0..10_000 {
            let mut fast = adversarial_population(&mut rng);
            let mut slow = fast.clone();
            let got = fast_non_dominated_sort(&mut fast);
            let want = peel(&mut slow);
            assert_eq!(got, want, "fronts differ in case {case}");
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(f.rank, s.rank, "rank of member {i} differs in case {case}");
            }
        }
    }

    #[test]
    fn later_fronts_follow_their_last_dominator() {
        // Front 0 is [0, 1] in index order. Member 2 is dominated only by
        // member 1 and member 3 only by member 0, so the peel reaches 3
        // (through position 0) before 2 (through position 1).
        let mut pop = vec![
            ind(vec![1.0, 3.0]),
            ind(vec![3.0, 1.0]),
            ind(vec![4.0, 2.0]),
            ind(vec![2.0, 4.0]),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts.as_slice(), &[vec![0, 1], vec![3, 2]]);
    }

    #[test]
    fn zero_objectives_form_one_front() {
        let mut pop = vec![ind(Vec::new()), ind(Vec::new())];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts.as_slice(), &[vec![0, 1]]);
    }

    fn ind(objs: Vec<f64>) -> Individual {
        Individual::new(vec![0.0], Evaluation::unconstrained(objs))
    }

    fn infeasible(objs: Vec<f64>, violation: f64) -> Individual {
        Individual::new(vec![0.0], Evaluation::new(objs, vec![violation]))
    }

    #[test]
    fn sort_of_empty_population() {
        let mut pop: Vec<Individual> = Vec::new();
        let fronts = fast_non_dominated_sort(&mut pop);
        assert!(fronts.is_empty());
    }

    #[test]
    fn two_layer_sort() {
        // Layer 0: (1,4),(2,3),(4,1) ; layer 1: (3,4),(4,3)
        let mut pop = vec![
            ind(vec![1.0, 4.0]),
            ind(vec![3.0, 4.0]),
            ind(vec![2.0, 3.0]),
            ind(vec![4.0, 3.0]),
            ind(vec![4.0, 1.0]),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts.len(), 2);
        assert_eq!(fronts.best(), &[0, 2, 4]);
        assert_eq!(pop[1].rank, 1);
        assert_eq!(pop[3].rank, 1);
    }

    #[test]
    fn infeasible_individuals_rank_behind_feasible() {
        let mut pop = vec![
            infeasible(vec![0.0, 0.0], 0.5),
            ind(vec![9.0, 9.0]),
            infeasible(vec![0.0, 0.0], 0.1),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts.len(), 3);
        assert_eq!(pop[1].rank, 0);
        assert_eq!(pop[2].rank, 1); // smaller violation first among infeasible
        assert_eq!(pop[0].rank, 2);
    }

    #[test]
    fn crowding_boundaries_are_infinite() {
        let mut pop = vec![
            ind(vec![1.0, 4.0]),
            ind(vec![2.0, 3.0]),
            ind(vec![3.0, 2.0]),
            ind(vec![4.0, 1.0]),
        ];
        let front: Vec<usize> = (0..4).collect();
        assign_crowding(&mut pop, &front);
        assert!(pop[0].crowding.is_infinite());
        assert!(pop[3].crowding.is_infinite());
        assert!(pop[1].crowding.is_finite());
        assert!(pop[2].crowding.is_finite());
        // interior, evenly spaced: each gets 2/3 + 2/3 = 4/3
        assert!((pop[1].crowding - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn crowding_small_front_all_infinite() {
        let mut pop = vec![ind(vec![1.0, 2.0]), ind(vec![2.0, 1.0])];
        assign_crowding(&mut pop, &[0, 1]);
        assert!(pop[0].crowding.is_infinite());
        assert!(pop[1].crowding.is_infinite());
    }

    #[test]
    fn crowding_degenerate_objective_range() {
        let mut pop = vec![
            ind(vec![1.0, 1.0]),
            ind(vec![1.0, 1.0]),
            ind(vec![1.0, 1.0]),
        ];
        assign_crowding(&mut pop, &[0, 1, 2]);
        // All identical: boundaries infinite, middle zero (no contribution).
        let finite: Vec<f64> = pop
            .iter()
            .map(|p| p.crowding)
            .filter(|c| c.is_finite())
            .collect();
        for c in finite {
            assert_eq!(c, 0.0);
        }
    }

    #[test]
    fn environmental_selection_truncates_boundary_front() {
        // 4 on front 0, 2 on front 1; target 5 keeps all of front 0 and one
        // of front 1.
        let pop = vec![
            ind(vec![1.0, 4.0]),
            ind(vec![2.0, 3.0]),
            ind(vec![3.0, 2.0]),
            ind(vec![4.0, 1.0]),
            ind(vec![5.0, 5.0]),
            ind(vec![6.0, 6.0]),
        ];
        let survivors = environmental_selection(pop, 5);
        assert_eq!(survivors.len(), 5);
        let rank1: Vec<&Individual> = survivors.iter().filter(|s| s.rank == 1).collect();
        assert_eq!(rank1.len(), 1);
        // the rank-1 survivor must be (5,5), which dominates (6,6)... both
        // are rank 1 (5,5 dominates 6,6 so actually (6,6) is rank 2).
        assert_eq!(rank1[0].objectives(), &[5.0, 5.0]);
    }

    #[test]
    fn environmental_selection_noop_when_small() {
        let pop = vec![ind(vec![1.0, 2.0]), ind(vec![2.0, 1.0])];
        let survivors = environmental_selection(pop, 10);
        assert_eq!(survivors.len(), 2);
        assert_eq!(survivors[0].rank, 0);
    }

    #[test]
    fn ranks_are_contiguous_from_zero() {
        let mut pop: Vec<Individual> = (0..20)
            .map(|i| {
                let x = f64::from(i);
                ind(vec![x % 5.0, (x / 5.0).floor() + (x % 5.0) * 0.1])
            })
            .collect();
        let fronts = fast_non_dominated_sort(&mut pop);
        let max_rank = pop.iter().map(|p| p.rank).max().unwrap();
        assert_eq!(max_rank + 1, fronts.len());
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, pop.len());
    }
}
