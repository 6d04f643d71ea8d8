//! Lemma 3: a Markov chain on the linear array that delivers a packet to a
//! uniformly random position.
//!
//! The chain: a packet entering at node `k` (1-based) stays with probability
//! `1/n`; otherwise it moves left with probability `(k−1)/n` and right with
//! probability `(n−k)/n`. While moving left, a packet at node `j` stops with
//! probability `1/j` and continues left otherwise; symmetrically to the
//! right. Lemma 3 asserts each node is reached with probability exactly
//! `1/n`, which makes greedy routing with uniform destinations Markovian
//! (Corollary 4) — the key hypothesis of the Theorem 1 upper bound.

use rand::rngs::SmallRng;
use rand::Rng;

/// Phase of the Lemma 3 chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkState {
    /// Stopped at the current node (this is the destination).
    Stopped,
    /// Moving left; the stop decision at node `j` uses probability `1/j`.
    MovingLeft,
    /// Moving right; symmetric to [`WalkState::MovingLeft`].
    MovingRight,
}

/// The Lemma 3 Markov chain on a linear array of `n` elements.
#[derive(Debug, Clone, Copy)]
pub struct Lemma3Walk {
    n: usize,
}

impl Lemma3Walk {
    /// Creates the chain for a linear array of `n ≥ 1` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Self { n }
    }

    /// Initial transition for a packet entering at 1-based node `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in `1..=n`.
    pub fn enter(&self, k: usize, rng: &mut SmallRng) -> WalkState {
        assert!((1..=self.n).contains(&k));
        let u = rng.gen_range(0..self.n);
        if u == 0 {
            WalkState::Stopped
        } else if u < k {
            WalkState::MovingLeft
        } else {
            WalkState::MovingRight
        }
    }

    /// One step of the chain from 1-based node `j` in the given state;
    /// returns the new `(node, state)`.
    ///
    /// # Panics
    ///
    /// Panics if asked to step a stopped walk or to walk off the array.
    pub fn step(&self, j: usize, state: WalkState, rng: &mut SmallRng) -> (usize, WalkState) {
        match state {
            WalkState::Stopped => panic!("cannot step a stopped walk"),
            WalkState::MovingLeft => {
                let next = j - 1;
                assert!(next >= 1, "walked off the left end");
                // At node `next`, stop with probability 1/next.
                if rng.gen_range(0..next) == 0 {
                    (next, WalkState::Stopped)
                } else {
                    (next, WalkState::MovingLeft)
                }
            }
            WalkState::MovingRight => {
                let next = j + 1;
                assert!(next <= self.n, "walked off the right end");
                // Symmetric: stop with probability 1/(n−next+1).
                if rng.gen_range(0..self.n - next + 1) == 0 {
                    (next, WalkState::Stopped)
                } else {
                    (next, WalkState::MovingRight)
                }
            }
        }
    }

    /// Runs the chain to absorption and returns the final 1-based node.
    pub fn run(&self, k: usize, rng: &mut SmallRng) -> usize {
        let mut state = self.enter(k, rng);
        let mut node = k;
        while state != WalkState::Stopped {
            let (next, s) = self.step(node, state, rng);
            node = next;
            state = s;
        }
        node
    }

    /// Exact absorption distribution from entry node `k`, computed by
    /// dynamic programming (used in tests to verify Lemma 3 analytically).
    #[must_use]
    pub fn exact_distribution(&self, k: usize) -> Vec<f64> {
        let n = self.n;
        let mut dist = vec![0.0; n + 1]; // 1-based
        dist[k] += 1.0 / n as f64;
        // Moving left: reach node j < k having not stopped in (j, k), then
        // stop at j with probability 1/j.
        let mut p_moving = (k - 1) as f64 / n as f64;
        for j in (1..k).rev() {
            let stop = 1.0 / j as f64;
            dist[j] += p_moving * stop;
            p_moving *= 1.0 - stop;
        }
        // Moving right.
        let mut p_moving = (n - k) as f64 / n as f64;
        #[allow(clippy::needless_range_loop)]
        for j in k + 1..=n {
            let stop = 1.0 / (n - j + 1) as f64;
            dist[j] += p_moving * stop;
            p_moving *= 1.0 - stop;
        }
        dist.remove(0);
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn exact_distribution_is_uniform() {
        // This *is* Lemma 3, verified by exact computation for many n and k.
        for n in 1..=12 {
            let walk = Lemma3Walk::new(n);
            for k in 1..=n {
                let dist = walk.exact_distribution(k);
                for (j, &p) in dist.iter().enumerate() {
                    assert!(
                        (p - 1.0 / n as f64).abs() < 1e-12,
                        "n={n}, k={k}, j={}: p={p}",
                        j + 1
                    );
                }
            }
        }
    }

    #[test]
    fn simulation_agrees_with_lemma() {
        let n = 7;
        let walk = Lemma3Walk::new(n);
        let mut rng = SmallRng::seed_from_u64(1234);
        let trials = 140_000;
        let mut counts = vec![0u32; n];
        for _ in 0..trials {
            counts[walk.run(3, &mut rng) - 1] += 1;
        }
        for &c in &counts {
            let freq = f64::from(c) / trials as f64;
            assert!((freq - 1.0 / n as f64).abs() < 0.005, "freq {freq}");
        }
    }

    proptest! {
        #[test]
        fn prop_exact_distribution_sums_to_one(n in 1usize..20, k in 1usize..20) {
            let k = (k % n) + 1;
            let walk = Lemma3Walk::new(n);
            let total: f64 = walk.exact_distribution(k).iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-12);
        }
    }
}
