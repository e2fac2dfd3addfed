//! Individuals (decision vector + evaluation + GA bookkeeping) and
//! population containers.

use crate::evaluation::Evaluation;

/// One member of a GA population: a decision vector, its evaluation, and
/// the bookkeeping fields written by ranking/diversity procedures.
///
/// The bookkeeping fields (`rank`, `crowding`) are *outputs* of
/// [`sorting`](crate::sorting) procedures; they are plain public data in the
/// C-struct spirit because every algorithm layer reads and rewrites them.
#[derive(Debug, Clone)]
pub struct Individual {
    /// Decision variables (always inside the problem bounds).
    pub genes: Vec<f64>,
    /// Evaluation of `genes`.
    pub evaluation: Evaluation,
    /// Non-domination rank; 0 is the best front. `usize::MAX` = unranked.
    pub rank: usize,
    /// Crowding distance within its front (`f64::INFINITY` at extremes).
    pub crowding: f64,
}

impl Individual {
    /// Creates an unranked individual from genes and their evaluation.
    pub fn new(genes: Vec<f64>, evaluation: Evaluation) -> Self {
        Individual {
            genes,
            evaluation,
            rank: usize::MAX,
            crowding: 0.0,
        }
    }

    /// Minimized objective values.
    pub fn objectives(&self) -> &[f64] {
        self.evaluation.objectives()
    }

    /// Single objective value by index.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn objective(&self, k: usize) -> f64 {
        self.evaluation.objectives()[k]
    }

    /// `true` when all constraints are satisfied.
    pub fn is_feasible(&self) -> bool {
        self.evaluation.is_feasible()
    }

    /// Sum of constraint violations (0 when feasible).
    pub fn total_violation(&self) -> f64 {
        self.evaluation.total_violation()
    }

    /// Resets bookkeeping to the unranked state.
    pub fn clear_ranking(&mut self) {
        self.rank = usize::MAX;
        self.crowding = 0.0;
    }
}

/// A population is an owned, ordered collection of individuals.
///
/// Plain `Vec<Individual>` with a few domain helpers; it derefs nowhere —
/// use [`as_slice`](Population::as_slice) / indexing / iteration.
#[derive(Debug, Clone, Default)]
pub struct Population {
    members: Vec<Individual>,
}

impl Population {
    /// Creates an empty population.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a population with preallocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Population {
            members: Vec::with_capacity(n),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when there are no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds a member.
    pub fn push(&mut self, ind: Individual) {
        self.members.push(ind);
    }

    /// Borrows the members as a slice.
    pub fn as_slice(&self) -> &[Individual] {
        &self.members
    }

    /// Iterates over members.
    pub fn iter(&self) -> std::slice::Iter<'_, Individual> {
        self.members.iter()
    }

    /// Iterates mutably over members.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Individual> {
        self.members.iter_mut()
    }

    /// Count of feasible members.
    pub fn feasible_count(&self) -> usize {
        self.members.iter().filter(|m| m.is_feasible()).count()
    }

    /// Objective matrix view: one row (vec) per member.
    pub fn objective_rows(&self) -> Vec<Vec<f64>> {
        self.members
            .iter()
            .map(|m| m.objectives().to_vec())
            .collect()
    }
}

impl std::ops::Index<usize> for Population {
    type Output = Individual;
    fn index(&self, i: usize) -> &Individual {
        &self.members[i]
    }
}

impl std::ops::IndexMut<usize> for Population {
    fn index_mut(&mut self, i: usize) -> &mut Individual {
        &mut self.members[i]
    }
}

impl FromIterator<Individual> for Population {
    fn from_iter<I: IntoIterator<Item = Individual>>(iter: I) -> Self {
        Population {
            members: iter.into_iter().collect(),
        }
    }
}

impl Extend<Individual> for Population {
    fn extend<I: IntoIterator<Item = Individual>>(&mut self, iter: I) {
        self.members.extend(iter);
    }
}

impl IntoIterator for Population {
    type Item = Individual;
    type IntoIter = std::vec::IntoIter<Individual>;
    fn into_iter(self) -> Self::IntoIter {
        self.members.into_iter()
    }
}

impl<'a> IntoIterator for &'a Population {
    type Item = &'a Individual;
    type IntoIter = std::slice::Iter<'a, Individual>;
    fn into_iter(self) -> Self::IntoIter {
        self.members.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ind(objs: Vec<f64>, violation: f64) -> Individual {
        Individual::new(
            vec![0.0],
            Evaluation::new(
                objs,
                if violation > 0.0 {
                    vec![violation]
                } else {
                    vec![0.0]
                },
            ),
        )
    }

    #[test]
    fn new_individual_is_unranked() {
        let i = ind(vec![1.0, 2.0], 0.0);
        assert_eq!(i.rank, usize::MAX);
        assert_eq!(i.crowding, 0.0);
    }

    #[test]
    fn clear_ranking_resets_bookkeeping() {
        let mut i = ind(vec![1.0], 0.0);
        i.rank = 3;
        i.crowding = 7.5;
        i.clear_ranking();
        assert_eq!(i.rank, usize::MAX);
        assert_eq!(i.crowding, 0.0);
    }

    #[test]
    fn population_collects_and_counts_feasible() {
        let pop: Population = vec![ind(vec![1.0], 0.0), ind(vec![2.0], 0.3)]
            .into_iter()
            .collect();
        assert_eq!(pop.len(), 2);
        assert_eq!(pop.feasible_count(), 1);
    }

    #[test]
    fn population_extend_and_index() {
        let mut pop = Population::new();
        pop.extend(vec![ind(vec![1.0], 0.0)]);
        pop.push(ind(vec![2.0], 0.0));
        assert_eq!(pop[1].objective(0), 2.0);
        pop[0].rank = 0;
        assert_eq!(pop[0].rank, 0);
    }

    #[test]
    fn objective_rows_match_members() {
        let pop: Population = vec![ind(vec![1.0, 4.0], 0.0), ind(vec![2.0, 3.0], 0.0)]
            .into_iter()
            .collect();
        assert_eq!(pop.objective_rows(), vec![vec![1.0, 4.0], vec![2.0, 3.0]]);
    }
}
