//! Island-model multi-objective GA — the diversity-preservation
//! alternative the paper positions itself against.
//!
//! Sec. 4.1: *"A known method of diversity preservation is parallel
//! population GA with inter-population migration controlled in a tribe or
//! island based framework \[7\], which can be extended for Multi-objective
//! GA. However, in this work, we try to establish that this objective can
//! be accomplished by a simple modification in the traditional
//! single-population GA."*
//!
//! This module provides that baseline so the claim can be tested: `k`
//! islands evolve independently (each an elitist constrained-dominance GA
//! on its own subpopulation, *genotypically* separated rather than
//! objective-space partitioned), with periodic ring migration of each
//! island's best individuals. Compare against SACGA with the
//! `ablation_competition_modes` harness or your own experiments.
//!
//! The island model is one point of the cellular continuum (see
//! [`cellular`](crate::cellular)): islands are cells on a fully-connected
//! [`Topology`](crate::topology::Topology), whose first neighbor of
//! island `i` is the ring-migration target `(i + 1) % k`, with closed
//! mating (`openness == 0`). So there is no island loop: [`IslandConfig`]
//! is a preset of [`CellularConfigBuilder`] and [`IslandGa`] is
//! [`CellularGa`], which also gives island runs `cellular-checkpoint v1`
//! suspension.

use crate::cellular::{CellularConfig, CellularConfigBuilder, CellularGa};

/// The island-model preset of the cellular configuration.
///
/// Not a configuration type of its own: [`IslandConfig::builder`]
/// returns a [`CellularConfigBuilder`] on a fully-connected topology,
/// and [`CellularConfigBuilder::islands`] sets the island count.
#[derive(Debug)]
pub enum IslandConfig {}

impl IslandConfig {
    /// Starts a cellular configuration builder with the island-model
    /// defaults: population 100 over 5 fully-connected islands, 250
    /// generations, 2 migrants every 20 generations, closed mating.
    pub fn builder() -> CellularConfigBuilder {
        CellularConfig::builder()
            .population_size(100)
            .generations(250)
            .islands(5)
            .migration_interval(20)
            .migrants(2)
            .openness(0.0)
    }
}

/// The island-model multi-objective GA: the cellular loop on an
/// [`IslandConfig`] preset.
///
/// # Examples
///
/// ```
/// use sacga::island::{IslandGa, IslandConfig};
/// use moea::problems::Schaffer;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let config = IslandConfig::builder()
///     .population_size(40)
///     .generations(30)
///     .islands(4)
///     .build()?;
/// let result = IslandGa::new(Schaffer::new(), config).run_seeded(1)?;
/// assert!(!result.front.is_empty());
/// # Ok(())
/// # }
/// ```
pub type IslandGa<P> = CellularGa<P>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{MemorySink, Optimizer, RunEvent};
    use moea::problems::{Schaffer, Zdt1};
    use moea::RunStatus;

    fn quick(islands: usize, interval: usize) -> CellularConfig {
        IslandConfig::builder()
            .population_size(40)
            .generations(30)
            .islands(islands)
            .migration_interval(interval)
            .migrants(2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(IslandConfig::builder().islands(0).build().is_err());
        assert!(IslandConfig::builder()
            .population_size(10)
            .islands(5)
            .build()
            .is_err());
        assert!(IslandConfig::builder()
            .migration_interval(0)
            .build()
            .is_err());
        assert!(IslandConfig::builder()
            .population_size(20)
            .islands(2)
            .migrants(10)
            .build()
            .is_err());
        // A lone island has no neighbor to mate with.
        assert!(IslandConfig::builder()
            .islands(1)
            .openness(0.5)
            .build()
            .is_err());
        assert!(IslandConfig::builder().build().is_ok());
    }

    #[test]
    fn run_is_deterministic() {
        let a = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(3)
            .unwrap();
        let b = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(3)
            .unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
        assert_eq!(a.stats.evaluations, b.stats.evaluations);
    }

    #[test]
    fn migrations_happen_on_schedule() {
        let r = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(1)
            .unwrap();
        assert_eq!(r.migrations, 3); // generations 10, 20, 30
    }

    #[test]
    fn events_match_run_structure() {
        let mut sink = MemorySink::new();
        let ga = IslandGa::new(Schaffer::new(), quick(4, 10));
        let watched = ga.run_with(1, &mut sink).unwrap();
        let bare = ga.run_seeded(1).unwrap();
        assert_eq!(bare.front_objectives(), watched.front_objectives());
        assert_eq!(bare.history, watched.history);
        let ends = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::GenerationEnd { .. }))
            .count();
        assert_eq!(ends, watched.generations);
        // One Promotion event per migration event (ring migration reuses
        // the promotion vocabulary).
        let promotions = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::Promotion { .. }))
            .count();
        assert_eq!(promotions, watched.migrations);
        assert!(matches!(
            ga.run_until(1, 5).unwrap(),
            RunStatus::Suspended(_)
        ));
    }

    #[test]
    fn single_island_never_migrates() {
        let r = IslandGa::new(Schaffer::new(), quick(1, 10))
            .run_seeded(1)
            .unwrap();
        assert_eq!(r.migrations, 0);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn archipelago_converges_on_schaffer() {
        let cfg = IslandConfig::builder()
            .population_size(60)
            .generations(80)
            .islands(4)
            .migration_interval(10)
            .build()
            .unwrap();
        let r = IslandGa::new(Schaffer::new(), cfg).run_seeded(7).unwrap();
        assert!(r.front.len() > 10);
        for m in &r.front {
            let f1 = m.objective(0);
            let f2 = m.objective(1);
            let expected = (f1.sqrt() - 2.0).powi(2);
            assert!(
                (f2 - expected).abs() < 0.1 + 0.15 * (1.0 + expected),
                "({f1}, {f2}) vs {expected}"
            );
        }
    }

    #[test]
    fn works_on_zdt() {
        let cfg = IslandConfig::builder()
            .population_size(48)
            .generations(40)
            .islands(3)
            .build()
            .unwrap();
        let r = IslandGa::new(Zdt1::new(8), cfg).run_seeded(5).unwrap();
        assert!(!r.front.is_empty());
        assert!(r.population.len() == 48);
    }

    #[test]
    fn evaluation_budget_matches_other_algorithms() {
        // pop + gens*pop evaluations, comparable to NSGA-II/SACGA budgets.
        let r = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(2)
            .unwrap();
        assert_eq!(r.stats.evaluations, 40 + 30 * 40);
    }
}
