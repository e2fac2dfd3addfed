//! Output checks: every operation's result is verified before its time
//! counts, and each failed check is counted against the run.

use moea::{dominates, Dominance, RunOutcome};

/// Failed checks of one run, in the order they were found.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    /// Records one attempted operation and the problems found in it.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

/// FNV-1a 64 over the IEEE-754 bits of every objective, in front order:
/// any change to any digit of any front point changes the digest.
pub fn front_digest<'a>(fronts: impl IntoIterator<Item = &'a [Vec<f64>]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for front in fronts {
        for point in front {
            for v in point {
                for byte in v.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        // Separate fronts so moving a point between them is visible.
        h = h.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
    }
    h
}

/// Problems with a front: non-finite, or with one member dominating
/// another.
pub fn front_problems(front: &[Vec<f64>]) -> Vec<String> {
    let mut out = Vec::new();
    if front.iter().flatten().any(|v| !v.is_finite()) {
        out.push("non-finite objective on the front".to_string());
    }
    for (i, a) in front.iter().enumerate() {
        if let Some(j) = front
            .iter()
            .position(|b| dominates(a, b) == Dominance::First)
        {
            out.push(format!("front member {i} dominates member {j}"));
            break;
        }
    }
    out
}

/// Problems with the engine's candidate accounting.
pub fn balance_problems(
    candidates: u64,
    evaluations: u64,
    cache_hits: u64,
    screened: u64,
) -> Vec<String> {
    if candidates == evaluations + cache_hits + screened && candidates > 0 {
        Vec::new()
    } else {
        vec![format!(
            "candidates {candidates} != evaluations {evaluations} + cache hits {cache_hits} \
             + screened {screened}"
        )]
    }
}

/// Every check a finished GA run must pass: balanced accounting, a
/// non-dominated front and a finite `hypervolume` (the workload's
/// front-quality measure). An empty front is a valid result of a short
/// run that found no feasible design; the known-answer runs, whose
/// fronts are recorded, require one.
pub fn outcome_problems(outcome: &RunOutcome, hypervolume: Option<f64>) -> Vec<String> {
    let s = &outcome.stats;
    let mut out = balance_problems(s.candidates, s.evaluations, s.cache_hits, s.screened);
    out.extend(front_problems(&outcome.front_objectives()));
    if let Some(hv) = hypervolume {
        if !hv.is_finite() {
            out.push(format!("hypervolume {hv} is not finite"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit_and_the_front_boundaries() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let base = front_digest([a.as_slice()]);
        let mut b = a.clone();
        b[1][1] = f64::from_bits(4.0f64.to_bits() ^ 1);
        assert_ne!(front_digest([b.as_slice()]), base);
        let (x, y) = a.split_at(1);
        assert_ne!(front_digest([x, y]), base);
        assert_eq!(front_digest([a.as_slice()]), base);
    }

    #[test]
    fn front_checks_catch_domination_and_non_finite_points() {
        assert!(front_problems(&[vec![1.0, 2.0], vec![2.0, 1.0]]).is_empty());
        assert_eq!(front_problems(&[vec![1.0, 1.0], vec![2.0, 2.0]]).len(), 1);
        assert!(front_problems(&[]).is_empty());
        assert_eq!(front_problems(&[vec![f64::NAN, 1.0]]).len(), 1);
    }

    #[test]
    fn balance_requires_every_candidate_accounted_for() {
        assert!(balance_problems(10, 7, 3, 0).is_empty());
        assert_eq!(balance_problems(10, 7, 2, 0).len(), 1);
        assert_eq!(balance_problems(0, 0, 0, 0).len(), 1);
    }

    #[test]
    fn checks_count_failed_operations_once() {
        let mut c = Checks::default();
        c.record("a", vec![]);
        c.record("b", vec!["x".into(), "y".into()]);
        assert_eq!((c.attempted, c.failed, c.errors.len()), (2, 1, 2));
        assert!(!c.ok());
    }
}
