//! Parent-selection schemes: crowded binary tournament (NSGA-II) and
//! rank-based roulette (used by the paper's global mating pool).

use crate::dominance::crowded_compare;
use crate::individual::Individual;
use rand::Rng;
use std::cmp::Ordering;

/// Crowded binary tournament: draws two random members and returns the index
/// of the preferred one under the crowded-comparison operator.
///
/// Requires ranks/crowding to have been assigned (see
/// [`rank_and_crowd`](crate::sorting::rank_and_crowd)).
///
/// # Panics
///
/// Panics if `pop` is empty.
pub fn binary_tournament<R: Rng + ?Sized>(rng: &mut R, pop: &[Individual]) -> usize {
    assert!(!pop.is_empty(), "tournament on empty population");
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    match crowded_compare(&pop[a], &pop[b]) {
        Ordering::Less => a,
        Ordering::Greater => b,
        Ordering::Equal => {
            if rng.gen::<bool>() {
                a
            } else {
                b
            }
        }
    }
}

/// Rank-based roulette selection.
///
/// Each individual's selection weight decays geometrically with its rank:
/// `w = decay^rank` (rank 0 is the best). This is the "rank-based selection
/// of individuals from the entire population" the paper uses to build the
/// Global Mating Pool: it gives every partition's members a chance while
/// still biasing toward locally/globally superior solutions.
///
/// Individuals whose rank is `usize::MAX` (unranked) are weighted one
/// decay step below the worst-ranked member.
///
/// A loop that draws many parents from one population builds its
/// [`RouletteWheel`] once with [`wheel`](RankRoulette::wheel) and spins
/// it per draw; [`select`](RankRoulette::select) builds one per draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankRoulette {
    /// Geometric decay per rank, in `(0, 1]`. Smaller = greedier.
    pub decay: f64,
}

impl RankRoulette {
    /// Creates a rank-roulette with the given decay.
    ///
    /// # Panics
    ///
    /// Panics if `decay` is not in `(0, 1]`.
    pub fn new(decay: f64) -> Self {
        assert!(
            decay > 0.0 && decay <= 1.0,
            "rank roulette decay must lie in (0, 1]"
        );
        RankRoulette { decay }
    }

    /// Builds the wheel of `pop`'s selection weights. An empty `pop`
    /// gives an empty wheel, which panics when spun.
    pub fn wheel(&self, pop: &[Individual]) -> RouletteWheel {
        let max_rank = pop
            .iter()
            .map(|p| if p.rank == usize::MAX { 0 } else { p.rank })
            .max()
            .unwrap_or(0);
        let weights: Vec<f64> = pop
            .iter()
            .map(|ind| {
                let r = if ind.rank == usize::MAX {
                    max_rank + 1
                } else {
                    ind.rank
                };
                self.decay.powi(r as i32)
            })
            .collect();
        let total = weights.iter().sum();
        RouletteWheel { weights, total }
    }

    /// Selects one index from `pop` with rank-weighted probability.
    ///
    /// # Panics
    ///
    /// Panics if `pop` is empty.
    pub fn select<R: Rng + ?Sized>(&self, rng: &mut R, pop: &[Individual]) -> usize {
        self.wheel(pop).spin(rng)
    }

    /// Fills a mating pool of `n` selected indices.
    pub fn pool<R: Rng + ?Sized>(&self, rng: &mut R, pop: &[Individual], n: usize) -> Vec<usize> {
        let wheel = self.wheel(pop);
        (0..n).map(|_| wheel.spin(rng)).collect()
    }
}

/// A [`RankRoulette`]'s member weights over one population and their
/// total, summed in member order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouletteWheel {
    weights: Vec<f64>,
    total: f64,
}

impl RouletteWheel {
    /// Draws one member index: one uniform `f64` scaled by the total,
    /// minus each weight in member order until it reaches zero. A total
    /// that is zero or not finite (every weight underflowed, or a rank
    /// beyond `i32::MAX`) falls back to a uniform draw.
    ///
    /// # Panics
    ///
    /// Panics if the wheel is empty.
    pub fn spin<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        assert!(!self.weights.is_empty(), "roulette on empty population");
        if self.total <= 0.0 || !self.total.is_finite() {
            return rng.gen_range(0..self.weights.len());
        }
        let mut target = rng.gen::<f64>() * self.total;
        for (i, w) in self.weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        self.weights.len() - 1
    }
}

impl Default for RankRoulette {
    /// Decay 0.8: rank-1 individuals are selected 80 % as often as rank-0.
    fn default() -> Self {
        RankRoulette::new(0.8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::Evaluation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ranked(rank: usize, crowding: f64) -> Individual {
        let mut i = Individual::new(vec![0.0], Evaluation::unconstrained(vec![0.0, 0.0]));
        i.rank = rank;
        i.crowding = crowding;
        i
    }

    #[test]
    fn tournament_prefers_lower_rank() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = vec![ranked(0, 1.0), ranked(5, 1.0)];
        let mut zero_wins = 0;
        for _ in 0..200 {
            if binary_tournament(&mut rng, &pop) == 0 {
                zero_wins += 1;
            }
        }
        // index 0 wins every tournament it appears in; expected ~75 % overall
        assert!(zero_wins > 120, "rank-0 won only {zero_wins}/200");
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn tournament_panics_on_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop: Vec<Individual> = Vec::new();
        let _ = binary_tournament(&mut rng, &pop);
    }

    #[test]
    #[should_panic(expected = "decay must lie")]
    fn roulette_rejects_bad_decay() {
        let _ = RankRoulette::new(0.0);
    }

    #[test]
    fn roulette_biases_toward_rank_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let pop = vec![ranked(0, 0.0), ranked(1, 0.0), ranked(2, 0.0)];
        let roulette = RankRoulette::new(0.5);
        let mut counts = [0usize; 3];
        for _ in 0..6000 {
            counts[roulette.select(&mut rng, &pop)] += 1;
        }
        // weights 1 : 0.5 : 0.25 -> expected ~3428 : 1714 : 857
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn roulette_with_decay_one_is_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let pop = vec![ranked(0, 0.0), ranked(9, 0.0)];
        let roulette = RankRoulette::new(1.0);
        let mut zero = 0;
        for _ in 0..2000 {
            if roulette.select(&mut rng, &pop) == 0 {
                zero += 1;
            }
        }
        assert!((zero as f64 - 1000.0).abs() < 120.0, "zero={zero}");
    }

    #[test]
    fn roulette_handles_unranked_members() {
        let mut rng = StdRng::seed_from_u64(4);
        let pop = vec![ranked(usize::MAX, 0.0), ranked(0, 0.0)];
        let roulette = RankRoulette::default();
        // must not panic / overflow
        for _ in 0..100 {
            let i = roulette.select(&mut rng, &pop);
            assert!(i < 2);
        }
    }

    /// The roulette as it was before the wheel: weights, their total and
    /// the scan recomputed on every draw. The oracle the wheel must match.
    fn select_per_draw(decay: f64, rng: &mut StdRng, pop: &[Individual]) -> usize {
        assert!(!pop.is_empty(), "roulette on empty population");
        let max_rank = pop
            .iter()
            .map(|p| if p.rank == usize::MAX { 0 } else { p.rank })
            .max()
            .unwrap_or(0);
        let weight = |ind: &Individual| -> f64 {
            let r = if ind.rank == usize::MAX {
                max_rank + 1
            } else {
                ind.rank
            };
            decay.powi(r as i32)
        };
        let total: f64 = pop.iter().map(weight).sum();
        if total <= 0.0 || !total.is_finite() {
            return rng.gen_range(0..pop.len());
        }
        let mut target = rng.gen::<f64>() * total;
        for (i, ind) in pop.iter().enumerate() {
            target -= weight(ind);
            if target <= 0.0 {
                return i;
            }
        }
        pop.len() - 1
    }

    #[test]
    fn wheel_draws_match_the_per_draw_roulette() {
        let mut layout_rng = StdRng::seed_from_u64(6);
        for case in 0..2_000 {
            let n: usize = match case % 4 {
                0 => 1,
                _ => layout_rng.gen_range(1..=60),
            };
            let layout = layout_rng.gen_range(0..6usize);
            let pop: Vec<Individual> = (0..n)
                .map(|_| {
                    let rank = match layout {
                        0 => 3,
                        1 if layout_rng.gen::<bool>() => usize::MAX,
                        // Weights that underflow to a zero total, and
                        // ranks past `i32::MAX` whose weights overflow.
                        2 => layout_rng.gen_range(2_000..2_010),
                        3 if layout_rng.gen_range(0..4) == 0 => 1 << 31,
                        _ => layout_rng.gen_range(0..8),
                    };
                    ranked(rank, 0.0)
                })
                .collect();
            for decay in [1.0, 0.8, 0.3] {
                let roulette = RankRoulette::new(decay);
                let wheel = roulette.wheel(&pop);
                let mut spun = StdRng::seed_from_u64(case);
                let mut oracle = spun.clone();
                for _ in 0..50 {
                    assert_eq!(
                        wheel.spin(&mut spun),
                        select_per_draw(decay, &mut oracle, &pop),
                        "case {case}, decay {decay}"
                    );
                    assert_eq!(
                        roulette.select(&mut spun.clone(), &pop),
                        select_per_draw(decay, &mut oracle.clone(), &pop)
                    );
                }
                assert_eq!(spun, oracle, "RNG state differs in case {case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_wheel_panics_when_spun() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = RankRoulette::default().wheel(&[]).spin(&mut rng);
    }

    #[test]
    fn pool_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(5);
        let pop = vec![ranked(0, 0.0), ranked(1, 0.0)];
        let pool = RankRoulette::default().pool(&mut rng, &pop, 17);
        assert_eq!(pool.len(), 17);
        assert!(pool.iter().all(|&i| i < 2));
    }
}
