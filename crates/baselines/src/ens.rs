//! Efficient Nonmyopic Search — ENS (Jiang, Malkomes, Converse,
//! Shofner, Moseley, Garnett; ICML 2017), as adapted by the SeeSaw paper
//! (§5.4).
//!
//! ENS is an *active search* policy: maximize the number of positives
//! found within a fixed budget. Its probability model is a weighted
//! kNN classifier with a per-vertex prior:
//!
//! ```text
//! p(y_i = 1 | D) = (w₀·γ_i + Σ_{j ∈ N(i) ∩ labeled} w_ij·y_j)
//!               /  (w₀     + Σ_{j ∈ N(i) ∩ labeled} w_ij)
//! ```
//!
//! The paper's modifications, both implemented here: γ_i comes from the
//! CLIP score of vertex i (optionally Platt-calibrated — Table 4), and
//! ENS only starts after zero-shot CLIP finds a first positive (that
//! hand-off lives in the session layer).
//!
//! The nonmyopic score of candidate `i` with remaining budget `t` is the
//! expected number of positives assuming one lookahead step and greedy
//! completion:
//!
//! ```text
//! score(i) = p_i · (1 + Σtop_{t−1} p' | y_i = 1)
//!          + (1 − p_i) · (Σtop_{t−1} p' | y_i = 0)
//! ```
//!
//! where `Σtop_m p'` sums the `m` largest *updated* posteriors over the
//! remaining unlabeled vertices. Conditioning on `y_i` only changes the
//! posteriors of `i`'s graph neighbours, so each candidate is evaluated
//! from a shared sorted snapshot plus O(k) local adjustments — still
//! **linear in N per iteration**, which is exactly the scaling the paper
//! contrasts against SeeSaw's N-independent aligner (Table 6).

use seesaw_knn::{gaussian_adjacency, KnnGraph};
use seesaw_linalg::CsrMatrix;

/// Pseudo-count weight `w₀` of the prior γ_i in the kNN posterior.
const PRIOR_WEIGHT: f32 = 1.0;

/// The ENS active searcher over a fixed vertex set.
#[derive(Clone, Debug)]
pub struct EnsSearcher {
    adjacency: CsrMatrix,
    priors: Vec<f32>,
    /// −1 unlabeled, 0 negative, 1 positive.
    labels: Vec<i8>,
    /// Σ w_ij over labeled neighbours `j` of `i`.
    all_sum: Vec<f32>,
    /// Σ w_ij over labeled *positive* neighbours `j` of `i`.
    pos_sum: Vec<f32>,
    remaining: usize,
    n_unlabeled: usize,
}

impl EnsSearcher {
    /// Build from a kNN graph (weighted by
    /// [`seesaw_knn::gaussian_adjacency`]), per-vertex priors
    /// `γ_i ∈ [0, 1]` (e.g. CLIP scores mapped to the unit interval),
    /// and the initial reward horizon `t`, which is decremented after
    /// every observation ("we set the time horizon t = 60 initially, and
    /// reduce it after every step so ENS can make optimal decisions
    /// given the time remaining").
    ///
    /// # Panics
    /// Panics when `priors` length differs from the graph size.
    pub fn new(graph: &KnnGraph, priors: Vec<f32>, horizon: usize) -> Self {
        assert_eq!(priors.len(), graph.len(), "prior/vertex count mismatch");
        let adjacency = gaussian_adjacency(graph);
        let n = graph.len();
        Self {
            adjacency,
            priors: priors.iter().map(|p| p.clamp(0.0, 1.0)).collect(),
            labels: vec![-1; n],
            all_sum: vec![0.0; n],
            pos_sum: vec![0.0; n],
            remaining: horizon.max(1),
            n_unlabeled: n,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Whether vertex `i` has been labeled.
    pub fn is_labeled(&self, i: u32) -> bool {
        self.labels[i as usize] >= 0
    }

    /// Current posterior `p(y_i = 1)` under the kNN model.
    pub fn posterior(&self, i: u32) -> f32 {
        let i = i as usize;
        (PRIOR_WEIGHT * self.priors[i] + self.pos_sum[i]) / (PRIOR_WEIGHT + self.all_sum[i])
    }

    /// Record the label of vertex `i` and decrement the horizon.
    ///
    /// # Panics
    /// Panics when `i` was already labeled.
    pub fn observe(&mut self, i: u32, positive: bool) {
        assert!(!self.is_labeled(i), "vertex {i} labeled twice");
        self.labels[i as usize] = positive as i8;
        for (j, w) in self.adjacency.row_iter(i as usize) {
            self.all_sum[j as usize] += w;
            if positive {
                self.pos_sum[j as usize] += w;
            }
        }
        self.n_unlabeled -= 1;
        self.remaining = self.remaining.saturating_sub(1).max(1);
    }

    /// Pick the next vertex by the nonmyopic ENS score, skipping
    /// vertices for which `exclude` returns true (e.g. batch-pending
    /// items not yet observed); `None` when all vertices are labeled.
    pub fn select_next_excluding(&self, exclude: impl Fn(u32) -> bool) -> Option<u32> {
        let n = self.labels.len();
        if self.n_unlabeled == 0 || n == 0 {
            return None;
        }
        let m = self.remaining - 1; // future greedy picks after this one

        // Posteriors of all unlabeled vertices.
        let mut post = vec![0.0f32; n];
        for (i, p) in post.iter_mut().enumerate() {
            if self.labels[i] < 0 {
                *p = self.posterior(i as u32);
            }
        }

        // Shared sorted snapshot: top (m + maxdeg + 2) unlabeled
        // posteriors. Removals per candidate are at most (deg + 1), so
        // the snapshot always covers the true top-m after adjustment.
        let maxdeg = (0..n)
            .map(|i| self.adjacency.row_iter(i).count())
            .max()
            .unwrap_or(0);
        let snapshot_len = (m + maxdeg + 2).min(self.n_unlabeled);
        let mut order: Vec<u32> = (0..n as u32)
            .filter(|&i| self.labels[i as usize] < 0)
            .collect();
        order.sort_unstable_by(|&a, &b| {
            post[b as usize]
                .total_cmp(&post[a as usize])
                .then(a.cmp(&b))
        });
        order.truncate(snapshot_len);
        // Position of each id in the snapshot (+1; 0 = absent).
        let mut top_pos = vec![0u32; n];
        for (rank, &id) in order.iter().enumerate() {
            top_pos[id as usize] = rank as u32 + 1;
        }
        let top_vals: Vec<f32> = order.iter().map(|&id| post[id as usize]).collect();

        let mut best: Option<(f64, u32)> = None;
        let mut adj1: Vec<f32> = Vec::with_capacity(maxdeg);
        let mut adj0: Vec<f32> = Vec::with_capacity(maxdeg);
        let mut removed: Vec<u32> = Vec::with_capacity(maxdeg + 1);
        for i in 0..n as u32 {
            if self.labels[i as usize] >= 0 || exclude(i) {
                continue;
            }
            let p = post[i as usize] as f64;
            let score = if m == 0 {
                p
            } else {
                adj1.clear();
                adj0.clear();
                removed.clear();
                if top_pos[i as usize] > 0 {
                    removed.push(top_pos[i as usize] - 1);
                }
                for (j, w) in self.adjacency.row_iter(i as usize) {
                    let ju = j as usize;
                    if self.labels[ju] >= 0 || j == i {
                        continue;
                    }
                    let denom = PRIOR_WEIGHT + self.all_sum[ju] + w;
                    let base_num = PRIOR_WEIGHT * self.priors[ju] + self.pos_sum[ju];
                    adj1.push((base_num + w) / denom);
                    adj0.push(base_num / denom);
                    if top_pos[ju] > 0 {
                        removed.push(top_pos[ju] - 1);
                    }
                }
                let s1 = top_m_sum(&top_vals, &removed, &mut adj1, m);
                let s0 = top_m_sum(&top_vals, &removed, &mut adj0, m);
                p * (1.0 + s1) + (1.0 - p) * s0
            };
            match best {
                Some((b, _)) if b >= score => {}
                _ => best = Some((score, i)),
            }
        }
        best.map(|(_, i)| i)
    }
}

/// Sum of the `m` largest values of (snapshot minus removed positions,
/// plus `added` values). `added` is sorted in place (descending).
fn top_m_sum(snapshot: &[f32], removed_positions: &[u32], added: &mut [f32], m: usize) -> f64 {
    added.sort_unstable_by(|a, b| b.total_cmp(a));
    let mut sum = 0.0f64;
    let mut taken = 0usize;
    let mut si = 0usize;
    let mut ai = 0usize;
    while taken < m {
        // Skip removed snapshot positions.
        while si < snapshot.len() && removed_positions.contains(&(si as u32)) {
            si += 1;
        }
        let s = snapshot.get(si).copied();
        let a = added.get(ai).copied();
        match (s, a) {
            (Some(sv), Some(av)) => {
                if sv >= av {
                    sum += sv as f64;
                    si += 1;
                } else {
                    sum += av as f64;
                    ai += 1;
                }
            }
            (Some(sv), None) => {
                sum += sv as f64;
                si += 1;
            }
            (None, Some(av)) => {
                sum += av as f64;
                ai += 1;
            }
            (None, None) => break,
        }
        taken += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny 1-D dataset: a dense clump {0,1,2} and isolated {3, 4}.
    fn clumped_graph() -> KnnGraph {
        KnnGraph::brute_force(1, &[0.0, 0.1, 0.2, 5.0, 9.0], 2)
    }

    fn searcher(priors: Vec<f32>, horizon: usize) -> EnsSearcher {
        EnsSearcher::new(&clumped_graph(), priors, horizon)
    }

    #[test]
    fn posterior_equals_prior_before_feedback() {
        let s = searcher(vec![0.2, 0.4, 0.6, 0.1, 0.9], 10);
        for i in 0..5u32 {
            let expect = [0.2, 0.4, 0.6, 0.1, 0.9][i as usize];
            assert!((s.posterior(i) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn positive_observation_raises_neighbor_posteriors() {
        let mut s = searcher(vec![0.1; 5], 10);
        let before = s.posterior(1);
        s.observe(0, true);
        let after = s.posterior(1);
        assert!(after > before, "{after} vs {before}");
        // The far-away node is unaffected.
        assert!((s.posterior(4) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn negative_observation_lowers_neighbor_posteriors() {
        let mut s = searcher(vec![0.5; 5], 10);
        s.observe(0, false);
        assert!(s.posterior(1) < 0.5);
    }

    #[test]
    fn posterior_matches_hand_computation() {
        let mut s = searcher(vec![0.5; 5], 10);
        s.observe(0, true);
        // p(1) = (w0·γ + w_01) / (w0 + w_01), w0 = 1.
        let w01 = s.adjacency.get(1, 0);
        let expect = (0.5 + w01) / (1.0 + w01);
        assert!((s.posterior(1) - expect).abs() < 1e-5);
    }

    #[test]
    fn horizon_one_is_greedy_on_posterior() {
        let s = searcher(vec![0.2, 0.9, 0.3, 0.4, 0.5], 1);
        assert_eq!(s.select_next_excluding(|_| false), Some(1));
    }

    #[test]
    fn never_selects_labeled_vertices() {
        let mut s = searcher(vec![0.9, 0.8, 0.7, 0.1, 0.2], 3);
        s.observe(0, true);
        for _ in 0..4 {
            let pick = s.select_next_excluding(|_| false).unwrap();
            assert!(!s.is_labeled(pick));
            s.observe(pick, false);
        }
        assert_eq!(s.select_next_excluding(|_| false), None);
    }

    #[test]
    fn nonmyopic_prefers_cluster_over_isolated_point() {
        // Two candidates with the same prior: vertex 1 sits in the dense
        // clump (finding it positive unlocks neighbours), vertex 4 is
        // isolated. With a long horizon ENS must prefer the clump; this
        // is the paper's own illustration of ENS's long view.
        let s = searcher(vec![0.0, 0.5, 0.0, 0.0, 0.5], 10);
        let pick = s.select_next_excluding(|_| false).unwrap();
        assert_eq!(pick, 1, "ENS should pick the clustered candidate");
    }

    #[test]
    fn horizon_decrements_until_floor() {
        let mut s = searcher(vec![0.5; 5], 2);
        assert_eq!(s.remaining, 2);
        s.observe(0, false);
        assert_eq!(s.remaining, 1);
        s.observe(1, false);
        assert_eq!(s.remaining, 1); // floor at 1
    }

    #[test]
    #[should_panic(expected = "labeled twice")]
    fn double_observe_panics() {
        let mut s = searcher(vec![0.5; 5], 5);
        s.observe(2, true);
        s.observe(2, true);
    }

    #[test]
    fn top_m_sum_hand_cases() {
        // snapshot [.9, .7, .5], remove position 1 (=.7), add [.8, .1]:
        // top-2 of {.9, .5, .8, .1} = 1.7.
        let mut added = vec![0.1f32, 0.8];
        let s = top_m_sum(&[0.9, 0.7, 0.5], &[1], &mut added, 2);
        assert!((s - 1.7).abs() < 1e-6);
        // m larger than available: sums everything.
        let mut added = vec![0.2f32];
        let s = top_m_sum(&[0.4], &[], &mut added, 10);
        assert!((s - 0.6).abs() < 1e-6);
        // Empty everything.
        let mut added: Vec<f32> = vec![];
        assert_eq!(top_m_sum(&[], &[], &mut added, 3), 0.0);
    }
}
