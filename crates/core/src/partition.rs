//! Objective-space partitioning: `m` equal, disjoint slices of one
//! objective's range, inducing local competitions (Sec. 4.3 of the paper).

use moea::individual::Individual;
use moea::sorting::{assign_crowding, fast_non_dominated_sort};
use moea::OptimizeError;

/// An `m`-way equal partition of objective `objective`'s range
/// `[lo, hi]`.
///
/// In the paper's integrator problem the partitioning is "induced by the
/// division of the range space of the Load Capacitance"; the grid is
/// generic over which objective is sliced. Values outside `[lo, hi]` clamp
/// to the first/last slice, so every individual always has a partition.
///
/// # Examples
///
/// ```
/// use sacga::PartitionGrid;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let grid = PartitionGrid::new(0, 0.0, 5.0, 8)?;
/// assert_eq!(grid.partition_count(), 8);
/// assert_eq!(grid.partition_of(&[0.1, 9.9]), 0);
/// assert_eq!(grid.partition_of(&[4.99, 0.0]), 7);
/// assert_eq!(grid.partition_of(&[-3.0, 0.0]), 0); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionGrid {
    objective: usize,
    lo: f64,
    hi: f64,
    m: usize,
}

impl PartitionGrid {
    /// Creates a grid slicing objective `objective` over `[lo, hi]` into
    /// `m` equal partitions.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidConfig`] when `m == 0`, the range is
    /// degenerate, or not finite.
    pub fn new(objective: usize, lo: f64, hi: f64, m: usize) -> Result<Self, OptimizeError> {
        if m == 0 {
            return Err(OptimizeError::invalid_config(
                "partitions",
                "must be at least 1",
            ));
        }
        if lo >= hi || !lo.is_finite() || !hi.is_finite() {
            return Err(OptimizeError::invalid_config(
                "partition_range",
                format!("need finite lo < hi, got [{lo}, {hi}]"),
            ));
        }
        Ok(PartitionGrid {
            objective,
            lo,
            hi,
            m,
        })
    }

    /// Which objective index is sliced.
    pub fn objective(&self) -> usize {
        self.objective
    }

    /// Number of partitions `m`.
    pub fn partition_count(&self) -> usize {
        self.m
    }

    /// The sliced range `(lo, hi)`.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// The sub-range `[lo_p, hi_p)` covered by partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= partition_count()`.
    pub fn slice_range(&self, p: usize) -> (f64, f64) {
        assert!(p < self.m, "partition index out of range");
        let width = (self.hi - self.lo) / self.m as f64;
        (self.lo + p as f64 * width, self.lo + (p + 1) as f64 * width)
    }

    /// Partition index of an objective vector (clamped into range).
    pub fn partition_of(&self, objectives: &[f64]) -> usize {
        let v = objectives[self.objective];
        if !v.is_finite() || v <= self.lo {
            return 0;
        }
        if v >= self.hi {
            return self.m - 1;
        }
        let width = (self.hi - self.lo) / self.m as f64;
        (((v - self.lo) / width) as usize).min(self.m - 1)
    }

    /// A grid with a different partition count over the same range
    /// (MESACGA's expanding partitions).
    pub fn with_partitions(&self, m: usize) -> Result<Self, OptimizeError> {
        PartitionGrid::new(self.objective, self.lo, self.hi, m)
    }

    /// Derives a grid from a population's objective range when no a-priori
    /// range is known: `[min, max]` of the sliced objective, widened by 5 %
    /// on both sides.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidConfig`] when the population is
    /// empty or the objective has no finite spread.
    pub fn from_population(
        objective: usize,
        pop: &[Individual],
        m: usize,
    ) -> Result<Self, OptimizeError> {
        let values: Vec<f64> = pop
            .iter()
            .map(|i| i.objective(objective))
            .filter(|v| v.is_finite())
            .collect();
        if values.is_empty() {
            return Err(OptimizeError::invalid_config(
                "partition_range",
                "population has no finite values for the sliced objective",
            ));
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let pad = 0.05 * (hi - lo).max(1e-12) + 1e-12;
        PartitionGrid::new(objective, lo - pad, hi + pad, m)
    }
}

/// A population organized into the partitions of a [`PartitionGrid`]:
/// `members[p]` holds partition `p`'s individuals.
#[derive(Debug, Clone)]
pub struct PartitionedPopulation {
    grid: PartitionGrid,
    members: Vec<Vec<Individual>>,
    /// Partitions discarded for infeasibility at the end of phase I.
    alive: Vec<bool>,
}

impl PartitionedPopulation {
    /// Distributes `individuals` over the grid's partitions.
    pub fn distribute(grid: PartitionGrid, individuals: Vec<Individual>) -> Self {
        let mut members: Vec<Vec<Individual>> =
            (0..grid.partition_count()).map(|_| Vec::new()).collect();
        for ind in individuals {
            let p = grid.partition_of(ind.objectives());
            members[p].push(ind);
        }
        let alive = vec![true; grid.partition_count()];
        PartitionedPopulation {
            grid,
            members,
            alive,
        }
    }

    /// Reassembles a population from checkpointed parts, trusting the
    /// stored partition assignment (a bit-exact resume must not re-derive
    /// it, and promoted members may carry revised ranks).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidCheckpoint`] when the member or
    /// alive vectors disagree with the grid's partition count.
    pub(crate) fn from_parts(
        grid: PartitionGrid,
        members: Vec<Vec<Individual>>,
        alive: Vec<bool>,
    ) -> Result<Self, OptimizeError> {
        if members.len() != grid.partition_count() || alive.len() != grid.partition_count() {
            return Err(OptimizeError::invalid_checkpoint(format!(
                "expected {} partitions, got {} member lists and {} alive flags",
                grid.partition_count(),
                members.len(),
                alive.len()
            )));
        }
        Ok(PartitionedPopulation {
            grid,
            members,
            alive,
        })
    }

    /// The grid in use.
    pub fn grid(&self) -> &PartitionGrid {
        &self.grid
    }

    /// Number of partitions (alive or not).
    pub fn partition_count(&self) -> usize {
        self.members.len()
    }

    /// Members of partition `p`.
    pub fn partition(&self, p: usize) -> &[Individual] {
        &self.members[p]
    }

    /// `true` when partition `p` has not been discarded.
    pub fn is_alive(&self, p: usize) -> bool {
        self.alive[p]
    }

    /// Total population across alive partitions.
    pub fn len(&self) -> usize {
        self.members
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(m, _)| m.len())
            .sum()
    }

    /// `true` when no alive partition holds members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when every alive partition holds at least one feasible
    /// member — the phase-I termination condition.
    pub fn all_partitions_feasible(&self) -> bool {
        self.members
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .all(|(m, _)| m.iter().any(|i| i.is_feasible()))
    }

    /// Discards (kills) every alive partition without a feasible member —
    /// the phase-I cap action. Returns how many were discarded.
    pub fn discard_infeasible_partitions(&mut self) -> usize {
        let mut discarded = 0;
        for p in 0..self.members.len() {
            if self.alive[p] && !self.members[p].iter().any(|i| i.is_feasible()) {
                self.alive[p] = false;
                self.members[p].clear();
                discarded += 1;
            }
        }
        discarded
    }

    /// Runs a **local competition** in every alive partition: constrained
    /// non-dominated sort + crowding within the partition. Each member's
    /// `rank`/`crowding` fields are rewritten with its *local* values.
    pub fn rank_locally(&mut self) {
        for (p, part) in self.members.iter_mut().enumerate() {
            if !self.alive[p] || part.is_empty() {
                continue;
            }
            let fronts = fast_non_dominated_sort(part);
            for front in fronts.iter() {
                assign_crowding(part, front);
            }
        }
    }

    /// Routes offspring into partitions. Offspring landing in a discarded
    /// partition are redirected to the nearest alive one.
    pub fn absorb(&mut self, offspring: Vec<Individual>) {
        for ind in offspring {
            let mut p = self.grid.partition_of(ind.objectives());
            if !self.alive[p] {
                if let Some(q) = self.nearest_alive(p) {
                    p = q;
                } else {
                    continue; // no alive partition at all
                }
            }
            self.members[p].push(ind);
        }
    }

    /// Truncates each alive partition to `capacity` members by local rank
    /// with *random* tie-breaking — the per-partition elitist "Local
    /// Selection" of the paper.
    ///
    /// Deliberately **no crowding distance**: the paper's framework
    /// maintains diversity through the partitioning itself, not through a
    /// density estimator (crowding is never mentioned in its algorithm).
    /// This faithfulness matters: with crowding-based truncation even a
    /// single-partition "purely global" run keeps a well-spread front and
    /// the diversity pathology the paper reports never materializes.
    ///
    /// Survivors keep the rank they held before truncation and whatever
    /// crowding they carried; [`rank_locally`](Self::rank_locally), which
    /// the steady loop runs right after, sets both anew.
    pub fn truncate_to<R: rand::Rng + ?Sized>(&mut self, capacity: usize, rng: &mut R) {
        for p in 0..self.members.len() {
            if !self.alive[p] || self.members[p].len() <= capacity {
                continue;
            }
            let part = &mut self.members[p];
            fast_non_dominated_sort(part);
            // Random order, then stable sort by rank: equal-rank survival
            // is a fair draw.
            use rand::seq::SliceRandom;
            part.shuffle(rng);
            part.sort_by_key(|ind| ind.rank);
            part.truncate(capacity);
        }
    }

    /// Flattens alive partitions into one vector (cloned).
    pub fn flatten(&self) -> Vec<Individual> {
        self.members
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .flat_map(|(m, _)| m.iter().cloned())
            .collect()
    }

    /// Re-distributes all members over a new grid (MESACGA phase change).
    /// Dead partitions stay dead only in the old geometry; the new grid
    /// starts with every partition alive.
    pub fn regrid(self, grid: PartitionGrid) -> Self {
        let all = self.flatten();
        PartitionedPopulation::distribute(grid, all)
    }

    fn nearest_alive(&self, p: usize) -> Option<usize> {
        (0..self.members.len())
            .filter(|&q| self.alive[q])
            .min_by_key(|&q| q.abs_diff(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moea::evaluation::Evaluation;

    fn ind(objs: Vec<f64>, feasible: bool) -> Individual {
        let cons = if feasible { vec![0.0] } else { vec![1.0] };
        Individual::new(vec![0.0], Evaluation::new(objs, cons))
    }

    #[test]
    fn grid_rejects_bad_configs() {
        assert!(PartitionGrid::new(0, 0.0, 1.0, 0).is_err());
        assert!(PartitionGrid::new(0, 1.0, 1.0, 4).is_err());
        assert!(PartitionGrid::new(0, f64::NAN, 1.0, 4).is_err());
    }

    #[test]
    fn partition_of_covers_range_uniformly() {
        let g = PartitionGrid::new(0, 0.0, 10.0, 5).unwrap();
        assert_eq!(g.partition_of(&[0.0]), 0);
        assert_eq!(g.partition_of(&[1.9]), 0);
        assert_eq!(g.partition_of(&[2.0]), 1);
        assert_eq!(g.partition_of(&[9.99]), 4);
        assert_eq!(g.partition_of(&[10.0]), 4);
        assert_eq!(g.partition_of(&[999.0]), 4);
        assert_eq!(g.partition_of(&[-5.0]), 0);
        assert_eq!(g.partition_of(&[f64::NAN]), 0);
    }

    #[test]
    fn slice_ranges_tile_the_interval() {
        let g = PartitionGrid::new(0, -1.0, 1.0, 4).unwrap();
        let mut edge = -1.0;
        for p in 0..4 {
            let (lo, hi) = g.slice_range(p);
            assert!((lo - edge).abs() < 1e-12);
            edge = hi;
        }
        assert!((edge - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_population_covers_extremes() {
        let pop = vec![ind(vec![2.0, 0.0], true), ind(vec![8.0, 0.0], true)];
        let g = PartitionGrid::from_population(0, &pop, 3).unwrap();
        assert_eq!(g.partition_of(&[2.0, 0.0]), 0);
        assert_eq!(g.partition_of(&[8.0, 0.0]), 2);
    }

    #[test]
    fn from_population_rejects_empty() {
        assert!(PartitionGrid::from_population(0, &[], 3).is_err());
    }

    #[test]
    fn distribute_routes_by_objective() {
        let g = PartitionGrid::new(0, 0.0, 4.0, 4).unwrap();
        let pop = vec![
            ind(vec![0.5], true),
            ind(vec![1.5], true),
            ind(vec![1.7], true),
            ind(vec![3.9], true),
        ];
        let pp = PartitionedPopulation::distribute(g, pop);
        assert_eq!(pp.partition(0).len(), 1);
        assert_eq!(pp.partition(1).len(), 2);
        assert_eq!(pp.partition(2).len(), 0);
        assert_eq!(pp.partition(3).len(), 1);
        assert_eq!(pp.len(), 4);
    }

    #[test]
    fn feasibility_condition_and_discard() {
        let g = PartitionGrid::new(0, 0.0, 2.0, 2).unwrap();
        let pop = vec![ind(vec![0.5], true), ind(vec![1.5], false)];
        let mut pp = PartitionedPopulation::distribute(g, pop);
        assert!(!pp.all_partitions_feasible());
        let discarded = pp.discard_infeasible_partitions();
        assert_eq!(discarded, 1);
        assert!(!pp.is_alive(1));
        assert!(pp.all_partitions_feasible());
        assert_eq!(pp.len(), 1);
    }

    #[test]
    fn absorb_redirects_from_dead_partitions() {
        let g = PartitionGrid::new(0, 0.0, 2.0, 2).unwrap();
        let pop = vec![ind(vec![0.5], true), ind(vec![1.5], false)];
        let mut pp = PartitionedPopulation::distribute(g, pop);
        pp.discard_infeasible_partitions();
        pp.absorb(vec![ind(vec![1.9], true)]);
        // landed in dead partition 1 -> redirected to 0
        assert_eq!(pp.partition(0).len(), 2);
        assert!(pp.partition(1).is_empty());
    }

    #[test]
    fn local_ranking_is_per_partition() {
        let g = PartitionGrid::new(0, 0.0, 4.0, 2).unwrap();
        // Partition 0: (0.5, 5) dominated by nothing in its slice even
        // though (2.5, 1) would dominate it globally... (0.5,5) vs (2.5,1):
        // neither dominates (f0 smaller, f1 larger). Use a clear case:
        let pop = vec![
            ind(vec![0.5, 5.0], true),
            ind(vec![0.6, 6.0], true), // dominated within partition 0
            ind(vec![2.5, 1.0], true),
        ];
        let mut pp = PartitionedPopulation::distribute(g, pop);
        pp.rank_locally();
        let p0 = pp.partition(0);
        let ranks: Vec<usize> = p0.iter().map(|i| i.rank).collect();
        assert!(ranks.contains(&0) && ranks.contains(&1));
        assert_eq!(pp.partition(1)[0].rank, 0);
    }

    #[test]
    fn truncate_respects_capacity_and_elitism() {
        let g = PartitionGrid::new(0, 0.0, 1.0, 1).unwrap();
        let pop = vec![
            ind(vec![0.1, 1.0], true),
            ind(vec![0.2, 0.5], true),
            ind(vec![0.3, 2.0], true), // dominated by (0.1, 1.0)? f0: 0.1<0.3, f1: 1<2 -> yes
            ind(vec![0.15, 3.0], true),
        ];
        let mut pp = PartitionedPopulation::distribute(g, pop);
        use rand::SeedableRng as _;
        pp.truncate_to(2, &mut rand::rngs::StdRng::seed_from_u64(1));
        assert_eq!(pp.partition(0).len(), 2);
        // the two survivors must include the non-dominated pair
        let survivors: Vec<Vec<f64>> = pp
            .partition(0)
            .iter()
            .map(|i| i.objectives().to_vec())
            .collect();
        assert!(survivors.contains(&vec![0.1, 1.0]));
        assert!(survivors.contains(&vec![0.2, 0.5]));
    }

    #[test]
    fn regrid_preserves_members() {
        let g = PartitionGrid::new(0, 0.0, 4.0, 4).unwrap();
        let pop = vec![ind(vec![0.5], true), ind(vec![3.5], true)];
        let pp = PartitionedPopulation::distribute(g, pop);
        let regridded = pp.regrid(g.with_partitions(2).unwrap());
        assert_eq!(regridded.partition_count(), 2);
        assert_eq!(regridded.len(), 2);
        assert_eq!(regridded.partition(0).len(), 1);
        assert_eq!(regridded.partition(1).len(), 1);
    }

    #[test]
    fn flatten_skips_dead_partitions() {
        let g = PartitionGrid::new(0, 0.0, 2.0, 2).unwrap();
        let pop = vec![ind(vec![0.5], true), ind(vec![1.5], false)];
        let mut pp = PartitionedPopulation::distribute(g, pop);
        pp.discard_infeasible_partitions();
        assert_eq!(pp.flatten().len(), 1);
    }
}
