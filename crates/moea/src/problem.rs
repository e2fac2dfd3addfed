//! The optimization-problem abstraction: box-bounded real decision
//! variables, minimized objectives, inequality constraints.

use crate::error::OptimizeError;
use crate::evaluation::Evaluation;
use engine::CacheCanonicalizer;

/// Box bounds of the decision space.
///
/// Each decision variable `x[i]` must satisfy `lower[i] <= x[i] <= upper[i]`.
///
/// # Examples
///
/// ```
/// use moea::Bounds;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let b = Bounds::new(vec![0.0, -1.0], vec![1.0, 1.0])?;
/// assert_eq!(b.len(), 2);
/// assert!(b.contains(&[0.5, 0.0]));
/// assert!(!b.contains(&[1.5, 0.0]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Bounds {
    /// Creates bounds from lower/upper vectors.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidProblem`] when the vectors differ in
    /// length, are empty, contain non-finite values, or `lower[i] > upper[i]`
    /// for some `i`.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Result<Self, OptimizeError> {
        if lower.len() != upper.len() {
            return Err(OptimizeError::invalid_problem(format!(
                "bounds length mismatch: {} lower vs {} upper",
                lower.len(),
                upper.len()
            )));
        }
        if lower.is_empty() {
            return Err(OptimizeError::invalid_problem(
                "bounds must cover at least one variable",
            ));
        }
        for (i, (&lo, &hi)) in lower.iter().zip(&upper).enumerate() {
            if !lo.is_finite() || !hi.is_finite() {
                return Err(OptimizeError::invalid_problem(format!(
                    "bounds for variable {i} are not finite: [{lo}, {hi}]"
                )));
            }
            if lo > hi {
                return Err(OptimizeError::invalid_problem(format!(
                    "lower bound {lo} exceeds upper bound {hi} for variable {i}"
                )));
            }
        }
        Ok(Bounds { lower, upper })
    }

    /// Creates identical `[lo, hi]` bounds for `n` variables.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Bounds::new`].
    pub fn uniform(n: usize, lo: f64, hi: f64) -> Result<Self, OptimizeError> {
        Bounds::new(vec![lo; n], vec![hi; n])
    }

    /// Number of decision variables covered.
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// `true` when no variables are covered (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// Lower bound vector.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bound vector.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Width `upper[i] - lower[i]` of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn width(&self, i: usize) -> f64 {
        self.upper[i] - self.lower[i]
    }

    /// `true` when `x` has the right dimension and lies inside the box.
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.len()
            && x.iter()
                .zip(self.lower.iter().zip(&self.upper))
                .all(|(&v, (&lo, &hi))| v >= lo && v <= hi)
    }

    /// Clamps `x` into the box in place (non-finite entries snap to the
    /// lower bound).
    pub fn clamp(&self, x: &mut [f64]) {
        for (v, (&lo, &hi)) in x.iter_mut().zip(self.lower.iter().zip(&self.upper)) {
            if !v.is_finite() {
                *v = lo;
            } else {
                *v = v.clamp(lo, hi);
            }
        }
    }

    /// Maps a vector of unit-interval coordinates into the box.
    ///
    /// # Panics
    ///
    /// Panics if `unit.len()` differs from [`Bounds::len`].
    pub fn denormalize(&self, unit: &[f64]) -> Vec<f64> {
        assert_eq!(unit.len(), self.len(), "dimension mismatch");
        unit.iter()
            .zip(self.lower.iter().zip(&self.upper))
            .map(|(&u, (&lo, &hi))| lo + u * (hi - lo))
            .collect()
    }
}

/// A multi-objective, box-bounded, inequality-constrained minimization
/// problem.
///
/// Implementors define the decision space via [`bounds`](Problem::bounds),
/// the number of minimized objectives, and the evaluation function. All
/// algorithms in this workspace interact with problems exclusively through
/// this trait, so the switched-capacitor integrator of `analog-circuits`
/// and the ZDT suite plug into the same machinery.
///
/// The trait is object-safe; optimizers typically take `P: Problem` by value
/// and share it internally.
pub trait Problem {
    /// Short human-readable problem name (used in reports and benches).
    fn name(&self) -> &str;

    /// Decision-space box bounds; also defines the variable count.
    fn bounds(&self) -> &Bounds;

    /// Number of minimized objectives (at least 1, usually 2 here).
    fn num_objectives(&self) -> usize;

    /// Number of inequality constraints (0 for unconstrained problems).
    fn num_constraints(&self) -> usize {
        0
    }

    /// Evaluates a decision vector.
    ///
    /// Implementations must return exactly
    /// [`num_objectives`](Problem::num_objectives) objective values and
    /// [`num_constraints`](Problem::num_constraints) violation amounts.
    /// `x` is guaranteed to lie inside [`bounds`](Problem::bounds) when
    /// called by the optimizers of this workspace.
    fn evaluate(&self, x: &[f64]) -> Evaluation;

    /// An optional canonicalizer for memoization keys.
    ///
    /// Problems that decode genes through a coarse discretization (e.g.
    /// snapping widths to layout unit fingers) evaluate many distinct
    /// raw gene vectors to bit-identical results; returning a function
    /// that maps genes to a canonical representative lets the execution
    /// engine's cache serve all of them from one entry. Two gene vectors
    /// may share a canonical form only when
    /// [`evaluate`](Problem::evaluate) provably returns bit-identical
    /// results for both. The default (`None`) keys the cache on the raw
    /// genes.
    fn cache_canonicalizer(&self) -> Option<CacheCanonicalizer> {
        None
    }

    /// Number of decision variables; provided from the bounds.
    fn num_variables(&self) -> usize {
        self.bounds().len()
    }

    /// Validates an evaluation against the declared dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::EvaluationMismatch`] when sizes disagree.
    fn check_evaluation(&self, ev: &Evaluation) -> Result<(), OptimizeError> {
        if ev.objectives().len() != self.num_objectives() {
            return Err(OptimizeError::EvaluationMismatch {
                expected: self.num_objectives(),
                actual: ev.objectives().len(),
                what: "objectives",
            });
        }
        if ev.constraint_violations().len() != self.num_constraints() {
            return Err(OptimizeError::EvaluationMismatch {
                expected: self.num_constraints(),
                actual: ev.constraint_violations().len(),
                what: "constraints",
            });
        }
        Ok(())
    }
}

// Allow boxed (possibly type-erased) problems everywhere a `Problem` is
// expected, so a registry can hand out `Box<dyn Problem + Send + Sync>`
// and still instantiate any optimizer with it.
impl<P: Problem + ?Sized> Problem for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn bounds(&self) -> &Bounds {
        (**self).bounds()
    }
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn num_constraints(&self) -> usize {
        (**self).num_constraints()
    }
    fn evaluate(&self, x: &[f64]) -> Evaluation {
        (**self).evaluate(x)
    }
    fn cache_canonicalizer(&self) -> Option<CacheCanonicalizer> {
        (**self).cache_canonicalizer()
    }
}

// Allow passing shared references to problems everywhere a `Problem` is
// expected, so an optimizer can borrow a problem owned by a harness.
impl<P: Problem + ?Sized> Problem for &P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn bounds(&self) -> &Bounds {
        (**self).bounds()
    }
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn num_constraints(&self) -> usize {
        (**self).num_constraints()
    }
    fn evaluate(&self, x: &[f64]) -> Evaluation {
        (**self).evaluate(x)
    }
    fn cache_canonicalizer(&self) -> Option<CacheCanonicalizer> {
        (**self).cache_canonicalizer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_reject_mismatched_lengths() {
        assert!(Bounds::new(vec![0.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn bounds_reject_empty() {
        assert!(Bounds::new(vec![], vec![]).is_err());
    }

    #[test]
    fn bounds_reject_inverted() {
        assert!(Bounds::new(vec![2.0], vec![1.0]).is_err());
    }

    #[test]
    fn bounds_reject_non_finite() {
        assert!(Bounds::new(vec![f64::NEG_INFINITY], vec![1.0]).is_err());
        assert!(Bounds::new(vec![0.0], vec![f64::NAN]).is_err());
    }

    #[test]
    fn clamp_snaps_nan_to_lower() {
        let b = Bounds::uniform(2, -1.0, 1.0).unwrap();
        let mut x = [f64::NAN, 5.0];
        b.clamp(&mut x);
        assert_eq!(x, [-1.0, 1.0]);
    }

    #[test]
    fn denormalize_maps_unit_cube() {
        let b = Bounds::new(vec![0.0, 10.0], vec![2.0, 20.0]).unwrap();
        assert_eq!(b.denormalize(&[0.5, 0.0]), vec![1.0, 10.0]);
        assert_eq!(b.denormalize(&[1.0, 1.0]), vec![2.0, 20.0]);
    }

    #[test]
    fn contains_checks_dimension() {
        let b = Bounds::uniform(3, 0.0, 1.0).unwrap();
        assert!(!b.contains(&[0.5, 0.5]));
        assert!(b.contains(&[0.0, 0.5, 1.0]));
    }

    struct Toy {
        bounds: Bounds,
    }
    impl Problem for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn bounds(&self) -> &Bounds {
            &self.bounds
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, x: &[f64]) -> Evaluation {
            Evaluation::unconstrained(vec![x[0], 1.0 - x[0]])
        }
    }

    #[test]
    fn check_evaluation_detects_mismatch() {
        let toy = Toy {
            bounds: Bounds::uniform(1, 0.0, 1.0).unwrap(),
        };
        let good = toy.evaluate(&[0.3]);
        assert!(toy.check_evaluation(&good).is_ok());
        let bad = Evaluation::unconstrained(vec![1.0]);
        assert!(toy.check_evaluation(&bad).is_err());
        let bad_cons = Evaluation::new(vec![1.0, 2.0], vec![0.0]);
        assert!(toy.check_evaluation(&bad_cons).is_err());
    }

    #[test]
    fn problem_implemented_for_references() {
        let toy = Toy {
            bounds: Bounds::uniform(1, 0.0, 1.0).unwrap(),
        };
        fn takes_problem<P: Problem>(p: P) -> usize {
            p.num_variables()
        }
        assert_eq!(takes_problem(&toy), 1);
        // Forwarding impls delegate evaluation and the canonicalizer.
        let boxed: Box<dyn Problem> = Box::new(Toy {
            bounds: Bounds::uniform(1, 0.0, 1.0).unwrap(),
        });
        assert_eq!(boxed.evaluate(&[0.1]), toy.evaluate(&[0.1]));
        assert!(boxed.cache_canonicalizer().is_none());
        let by_ref: &Toy = &toy;
        assert_eq!(Problem::evaluate(&by_ref, &[0.9]), toy.evaluate(&[0.9]));
        assert!(Problem::cache_canonicalizer(&by_ref).is_none());
    }
}
