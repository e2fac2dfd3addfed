//! Neighborhood topologies for the cellular structured-population GA.
//!
//! "From Cells to Islands" frames island models and cellular GAs as two
//! ends of one continuum: both are populations structured by a
//! neighborhood graph, differing only in how many neighbors each deme
//! sees. This module is that graph. A [`Topology`] places `k` cells on a
//! fixed undirected graph — ring, 2-D torus, fully-connected, or
//! k-regular small-world — and answers two questions for the
//! [`cellular`](crate::cellular) loop:
//!
//! * **Who are my neighbors?** [`Topology::neighbors`] returns each
//!   cell's adjacency in a deterministic order. The list is self-free and
//!   symmetric (`j ∈ N(i) ⇔ i ∈ N(j)`), and its *first entry* is the
//!   cell's migration target, chosen so the fully-connected graph
//!   degenerates to the island model's `(i + 1) % k` ring migration.
//! * **Which neighbors are "ahead" of me?** [`Topology::orientation`]
//!   splits the adjacency into forward and backward halves by cyclic
//!   index distance, giving the mate-selection loop an anisotropy axis
//!   without any per-topology special cases.
//!
//! Everything here is pure and RNG-free except small-world chord
//! generation, which draws from its own seeded generator at construction
//! time — the optimizer's RNG stream never touches topology state.

use moea::OptimizeError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A neighborhood graph over `k` cells.
///
/// Construct one of the variants directly and call [`validate`]
/// (the cellular config builder does this for you), then query
/// [`cells`](Topology::cells) and [`neighbors`](Topology::neighbors).
///
/// [`validate`]: Topology::validate
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Cells on a cycle; each cell sees the `radius` nearest cells on
    /// either side (`2·radius` neighbors). Requires `2·radius < cells`.
    Ring {
        /// Number of cells (≥ 3).
        cells: usize,
        /// Neighborhood radius (≥ 1).
        radius: usize,
    },
    /// Cells on a `rows × cols` wrap-around grid; each cell sees the von
    /// Neumann ball of Manhattan radius `radius`.
    Torus {
        /// Grid rows (≥ 2).
        rows: usize,
        /// Grid columns (≥ 2).
        cols: usize,
        /// Manhattan neighborhood radius (≥ 1).
        radius: usize,
    },
    /// Every cell sees every other cell — the island model's topology.
    /// A single cell is the one-island model: it has no neighbors, so it
    /// never migrates and cannot mate openly.
    FullyConnected {
        /// Number of cells (≥ 1).
        cells: usize,
    },
    /// A ring of the given radius plus `chords` extra random symmetric
    /// edges (Watts–Strogatz-style shortcuts) drawn from a generator
    /// seeded with `seed`. Connectivity is guaranteed by the ring base.
    SmallWorld {
        /// Number of cells (≥ 3).
        cells: usize,
        /// Ring-lattice radius (≥ 1, `2·radius < cells`).
        radius: usize,
        /// Number of shortcut edges to add.
        chords: usize,
        /// Seed for the chord generator (part of the topology's
        /// identity: same seed, same graph).
        seed: u64,
    },
}

impl Topology {
    /// Number of cells in the graph.
    pub fn cells(&self) -> usize {
        match *self {
            Topology::Ring { cells, .. } => cells,
            Topology::Torus { rows, cols, .. } => rows * cols,
            Topology::FullyConnected { cells } => cells,
            Topology::SmallWorld { cells, .. } => cells,
        }
    }

    /// Short stable name of the variant, used in telemetry and specs.
    pub fn kind(&self) -> &'static str {
        match self {
            Topology::Ring { .. } => "ring",
            Topology::Torus { .. } => "torus",
            Topology::FullyConnected { .. } => "full",
            Topology::SmallWorld { .. } => "smallworld",
        }
    }

    /// Checks the structural parameters.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidConfig`] when the cell count is
    /// too small for the variant, a radius is zero, or a ring radius
    /// reaches around the cycle (`2·radius ≥ cells`, which would make
    /// neighbor lists overlap themselves).
    pub fn validate(&self) -> Result<(), OptimizeError> {
        let ring_ok = |cells: usize, radius: usize| -> Result<(), OptimizeError> {
            if cells < 3 {
                return Err(OptimizeError::invalid_config(
                    "topology",
                    format!("a ring needs at least 3 cells, got {cells}"),
                ));
            }
            if radius == 0 {
                return Err(OptimizeError::invalid_config(
                    "topology",
                    "neighborhood radius must be at least 1",
                ));
            }
            if radius.saturating_mul(2) >= cells {
                return Err(OptimizeError::invalid_config(
                    "topology",
                    format!(
                        "ring radius {radius} wraps around {cells} cells; need 2·radius < cells"
                    ),
                ));
            }
            Ok(())
        };
        match *self {
            Topology::Ring { cells, radius } => ring_ok(cells, radius),
            Topology::Torus { rows, cols, radius } => {
                if rows < 2 || cols < 2 {
                    return Err(OptimizeError::invalid_config(
                        "topology",
                        format!("a torus needs at least a 2×2 grid, got {rows}×{cols}"),
                    ));
                }
                if radius == 0 {
                    return Err(OptimizeError::invalid_config(
                        "topology",
                        "neighborhood radius must be at least 1",
                    ));
                }
                Ok(())
            }
            Topology::FullyConnected { cells } => {
                if cells == 0 {
                    return Err(OptimizeError::invalid_config(
                        "topology",
                        "a fully-connected graph needs at least 1 cell",
                    ));
                }
                Ok(())
            }
            Topology::SmallWorld { cells, radius, .. } => ring_ok(cells, radius),
        }
    }

    /// The adjacency of cell `i`, in a deterministic order with the
    /// migration target first. The list never contains `i` itself and
    /// never contains duplicates, and membership is symmetric.
    ///
    /// Orders per variant (all start with the successor `(i+1) % k`):
    ///
    /// * ring / small-world lattice part: `i+1, i−1, i+2, i−2, …` out to
    ///   the radius; small-world chords are appended afterwards in
    ///   construction order;
    /// * torus: east, south, west, north at distance 1, then each larger
    ///   Manhattan shell in the same rotational order;
    /// * fully-connected: `i+1, i+2, …, i+k−1` — so the first entry
    ///   reproduces the island model's ring-migration destination.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range. Call [`validate`](Self::validate)
    /// first; an invalid topology may also panic here.
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        let k = self.cells();
        assert!(i < k, "cell index {i} out of range for {k} cells");
        match *self {
            Topology::Ring { cells, radius } => ring_neighbors(cells, radius, i),
            Topology::FullyConnected { cells } => (1..cells).map(|d| (i + d) % cells).collect(),
            Topology::Torus { rows, cols, radius } => {
                let (r, c) = (i / cols, i % cols);
                let mut out = Vec::new();
                for d in 1..=radius as isize {
                    // One Manhattan shell, rotating east → south → west →
                    // north; each wrapped coordinate is deduplicated so
                    // small grids stay self-free and repeat-free.
                    for step in 0..4 * d {
                        let (dr, dc) = shell_offset(d, step);
                        let nr = wrap(r as isize + dr, rows);
                        let nc = wrap(c as isize + dc, cols);
                        let j = nr * cols + nc;
                        if j != i && !out.contains(&j) {
                            out.push(j);
                        }
                    }
                }
                out
            }
            Topology::SmallWorld {
                cells,
                radius,
                chords,
                seed,
            } => {
                let mut out = ring_neighbors(cells, radius, i);
                for (a, b) in chord_edges(cells, radius, chords, seed) {
                    if a == i && !out.contains(&b) {
                        out.push(b);
                    } else if b == i && !out.contains(&a) {
                        out.push(a);
                    }
                }
                out
            }
        }
    }

    /// Splits cell `i`'s adjacency into (forward, backward) halves by
    /// cyclic index distance: `j` is *forward* of `i` when
    /// `0 < (j − i) mod k ≤ k/2`. The split is the anisotropy axis for
    /// mate selection; for odd `k` the halves are balanced, for even `k`
    /// the antipode counts as forward.
    pub fn orientation(&self, i: usize) -> (Vec<usize>, Vec<usize>) {
        let k = self.cells();
        self.neighbors(i)
            .into_iter()
            .partition(|&j| (j + k - i) % k <= k / 2)
    }

    /// Whether the neighborhood graph is connected (every cell reachable
    /// from cell 0). All validated variants are connected by
    /// construction; this is the independent check the property tests
    /// pin that claim with.
    pub fn is_connected(&self) -> bool {
        let k = self.cells();
        if k == 0 {
            return false;
        }
        let mut seen = vec![false; k];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(i) = stack.pop() {
            for j in self.neighbors(i) {
                if !seen[j] {
                    seen[j] = true;
                    reached += 1;
                    stack.push(j);
                }
            }
        }
        reached == k
    }
}

fn ring_neighbors(cells: usize, radius: usize, i: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(2 * radius);
    for d in 1..=radius {
        out.push((i + d) % cells);
        out.push((i + cells - d) % cells);
    }
    out
}

/// The `step`-th offset of the Manhattan shell at distance `d`, walking
/// the diamond clockwise from due east.
fn shell_offset(d: isize, step: isize) -> (isize, isize) {
    match step / d {
        0 => (step % d, d - step % d),       // east → south edge
        1 => (d - step % d, -(step % d)),    // south → west edge
        2 => (-(step % d), -(d - step % d)), // west → north edge
        _ => (-(d - step % d), step % d),    // north → east edge
    }
}

fn wrap(v: isize, m: usize) -> usize {
    v.rem_euclid(m as isize) as usize
}

/// The deterministic chord set of a small-world topology: `chords`
/// undirected edges drawn from a generator seeded with `seed`, skipping
/// self-loops, lattice edges, and duplicates. Attempts are bounded, so a
/// dense graph simply ends up with fewer chords than requested.
fn chord_edges(cells: usize, radius: usize, chords: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(chords);
    let lattice = |a: usize, b: usize| {
        let dist = (b + cells - a) % cells;
        dist.min(cells - dist) <= radius
    };
    let mut attempts = 0usize;
    let budget = chords.saturating_mul(20).saturating_add(cells);
    while edges.len() < chords && attempts < budget {
        attempts += 1;
        let a = rng.gen_range(0..cells);
        let b = rng.gen_range(0..cells);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi || lattice(lo, hi) || edges.contains(&(lo, hi)) {
            continue;
        }
        edges.push((lo, hi));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_shapes() {
        assert!(Topology::Ring {
            cells: 2,
            radius: 1
        }
        .validate()
        .is_err());
        assert!(Topology::Ring {
            cells: 8,
            radius: 4
        }
        .validate()
        .is_err());
        assert!(Topology::Ring {
            cells: 8,
            radius: 0
        }
        .validate()
        .is_err());
        assert!(Topology::Ring {
            cells: 8,
            radius: 3
        }
        .validate()
        .is_ok());
        assert!(Topology::Torus {
            rows: 1,
            cols: 4,
            radius: 1
        }
        .validate()
        .is_err());
        assert!(Topology::Torus {
            rows: 2,
            cols: 2,
            radius: 1
        }
        .validate()
        .is_ok());
        assert!(Topology::FullyConnected { cells: 0 }.validate().is_err());
        assert!(Topology::FullyConnected { cells: 1 }.validate().is_ok());
        assert!(Topology::SmallWorld {
            cells: 8,
            radius: 1,
            chords: 2,
            seed: 7
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn fully_connected_leads_with_the_island_migration_target() {
        let topo = Topology::FullyConnected { cells: 5 };
        for i in 0..5 {
            let n = topo.neighbors(i);
            assert_eq!(n[0], (i + 1) % 5);
            assert_eq!(n.len(), 4);
        }
    }

    #[test]
    fn ring_neighbors_alternate_sides() {
        let topo = Topology::Ring {
            cells: 8,
            radius: 2,
        };
        assert_eq!(topo.neighbors(0), vec![1, 7, 2, 6]);
        assert_eq!(topo.neighbors(7), vec![0, 6, 1, 5]);
    }

    #[test]
    fn torus_distance_one_is_von_neumann() {
        let topo = Topology::Torus {
            rows: 3,
            cols: 4,
            radius: 1,
        };
        // cell 0 is (0,0): east (0,1)=1, south (1,0)=4, west (0,3)=3,
        // north (2,0)=8.
        assert_eq!(topo.neighbors(0), vec![1, 4, 3, 8]);
    }

    #[test]
    fn torus_wraps_without_duplicates() {
        let topo = Topology::Torus {
            rows: 2,
            cols: 2,
            radius: 2,
        };
        for i in 0..4 {
            let n = topo.neighbors(i);
            assert!(!n.contains(&i));
            let mut sorted = n.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), n.len(), "duplicates in {n:?}");
        }
    }

    #[test]
    fn small_world_chords_are_symmetric_and_reproducible() {
        let topo = Topology::SmallWorld {
            cells: 16,
            radius: 1,
            chords: 4,
            seed: 9,
        };
        for i in 0..16 {
            for j in topo.neighbors(i) {
                assert!(topo.neighbors(j).contains(&i), "{i} -> {j} not mirrored");
            }
            assert_eq!(topo.neighbors(i), topo.neighbors(i));
        }
        assert!(topo.is_connected());
    }

    #[test]
    fn orientation_splits_cover_the_adjacency() {
        let topo = Topology::Ring {
            cells: 9,
            radius: 2,
        };
        for i in 0..9 {
            let (fwd, bwd) = topo.orientation(i);
            let mut all = fwd.clone();
            all.extend(&bwd);
            all.sort_unstable();
            let mut n = topo.neighbors(i);
            n.sort_unstable();
            assert_eq!(all, n);
            assert_eq!(fwd.len(), 2);
            assert_eq!(bwd.len(), 2);
        }
    }

    #[test]
    fn all_variants_are_connected() {
        let topos = [
            Topology::Ring {
                cells: 12,
                radius: 1,
            },
            Topology::Torus {
                rows: 3,
                cols: 5,
                radius: 1,
            },
            Topology::FullyConnected { cells: 6 },
            Topology::SmallWorld {
                cells: 12,
                radius: 2,
                chords: 3,
                seed: 1,
            },
        ];
        for t in topos {
            t.validate().unwrap();
            assert!(t.is_connected(), "{t:?} not connected");
        }
    }
}
