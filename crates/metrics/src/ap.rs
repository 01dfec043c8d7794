//! The paper's Average Precision protocol.

/// The find-`target` / stop-at-`budget` benchmark protocol of §5.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchmarkProtocol {
    /// Stop after finding this many relevant results (paper: 10).
    pub target_results: usize,
    /// Stop after inspecting this many images (paper: 60).
    pub image_budget: usize,
}

impl Default for BenchmarkProtocol {
    fn default() -> Self {
        Self {
            target_results: 10,
            image_budget: 60,
        }
    }
}

impl BenchmarkProtocol {
    /// Whether a search should stop after a trace of the given history.
    pub fn should_stop(&self, shown: usize, found: usize) -> bool {
        found >= self.target_results || shown >= self.image_budget
    }
}

/// The outcome of one benchmark search: the relevance of each image in
/// the order shown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchTrace {
    /// `true` for every shown image that was relevant.
    pub relevance: Vec<bool>,
}

impl SearchTrace {
    /// Create from a relevance sequence.
    pub fn new(relevance: Vec<bool>) -> Self {
        Self { relevance }
    }

    /// Number of images shown.
    pub fn shown(&self) -> usize {
        self.relevance.len()
    }

    /// Number of relevant images found.
    pub fn found(&self) -> usize {
        self.relevance.iter().filter(|&&r| r).count()
    }
}

/// Classic (untruncated) ranking Average Precision: the mean of the
/// precision at every relevant item over the *entire* ranking. This is
/// the metric of Fig. 4's motivation study (§3.1), where whole-dataset
/// rankings of the ideal vs initial query vectors are compared; the
/// interactive benchmark itself uses [`average_precision`] instead.
pub fn ranking_average_precision(relevance_in_rank_order: &[bool]) -> f64 {
    let total_relevant = relevance_in_rank_order.iter().filter(|&&r| r).count();
    if total_relevant == 0 {
        return 0.0;
    }
    let mut found = 0usize;
    let mut precision_sum = 0.0f64;
    for (idx, &relevant) in relevance_in_rank_order.iter().enumerate() {
        if relevant {
            found += 1;
            precision_sum += found as f64 / (idx + 1) as f64;
        }
    }
    precision_sum / total_relevant as f64
}

/// Average Precision of a truncated search trace, per §5.1:
///
/// * `R = min(protocol.target_results, total_relevant)`;
/// * for each of the first `R` relevant results found, add the precision
///   at its rank;
/// * relevant results *not* found within the trace contribute zero;
/// * divide by `R`.
///
/// Returns 0 for queries with no relevant results in the dataset (the
/// benchmark never emits those) and handles `R = 0` gracefully.
pub fn average_precision(
    trace: &SearchTrace,
    total_relevant: usize,
    protocol: &BenchmarkProtocol,
) -> f64 {
    let r = protocol.target_results.min(total_relevant);
    if r == 0 {
        return 0.0;
    }
    let mut found = 0usize;
    let mut precision_sum = 0.0f64;
    for (idx, &relevant) in trace.relevance.iter().enumerate() {
        if relevant {
            found += 1;
            precision_sum += found as f64 / (idx + 1) as f64;
            if found == r {
                break;
            }
        }
    }
    precision_sum / r as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto() -> BenchmarkProtocol {
        BenchmarkProtocol::default()
    }

    #[test]
    fn perfect_prefix_scores_one() {
        let trace = SearchTrace::new(vec![true; 10]);
        assert_eq!(average_precision(&trace, 100, &proto()), 1.0);
    }

    #[test]
    fn perfect_with_fewer_relevant_than_target() {
        // R = min(10, 3) = 3; first three images are the three relevant.
        let trace = SearchTrace::new(vec![true, true, true, false]);
        assert_eq!(average_precision(&trace, 3, &proto()), 1.0);
    }

    #[test]
    fn nothing_found_scores_zero() {
        let trace = SearchTrace::new(vec![false; 60]);
        assert_eq!(average_precision(&trace, 50, &proto()), 0.0);
    }

    #[test]
    fn hand_computed_example() {
        // Relevant at ranks 1 and 3, R = min(10, 2) = 2:
        // AP = (1/1 + 2/3)/2 = 5/6.
        let trace = SearchTrace::new(vec![true, false, true]);
        let ap = average_precision(&trace, 2, &proto());
        assert!((ap - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn unfound_results_count_as_zero_precision() {
        // 10 relevant exist; only 1 found at rank 1: AP = (1 + 0·9)/10.
        let mut rel = vec![false; 60];
        rel[0] = true;
        let trace = SearchTrace::new(rel);
        let ap = average_precision(&trace, 10, &proto());
        assert!((ap - 0.1).abs() < 1e-12);
    }

    #[test]
    fn only_first_r_found_results_count() {
        // 12 relevant found in the first 12 ranks, but R = 10: AP = 1.
        let trace = SearchTrace::new(vec![true; 12]);
        assert_eq!(average_precision(&trace, 12, &proto()), 1.0);
    }

    #[test]
    fn later_results_score_less() {
        let early = SearchTrace::new(vec![true, false, false, false]);
        let late = SearchTrace::new(vec![false, false, false, true]);
        let ap_early = average_precision(&early, 1, &proto());
        let ap_late = average_precision(&late, 1, &proto());
        assert_eq!(ap_early, 1.0);
        assert!((ap_late - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ap_is_bounded() {
        // Random-ish traces stay within [0, 1].
        for pattern in 0..256u32 {
            let rel: Vec<bool> = (0..8).map(|b| pattern & (1 << b) != 0).collect();
            let ap = average_precision(&SearchTrace::new(rel), 5, &proto());
            assert!((0.0..=1.0).contains(&ap), "{pattern:#b} gave {ap}");
        }
    }

    #[test]
    fn zero_relevant_is_zero() {
        let trace = SearchTrace::new(vec![false, false]);
        assert_eq!(average_precision(&trace, 0, &proto()), 0.0);
    }

    #[test]
    fn protocol_stopping_rules() {
        let p = proto();
        assert!(!p.should_stop(0, 0));
        assert!(p.should_stop(60, 3));
        assert!(p.should_stop(12, 10));
        assert!(!p.should_stop(59, 9));
    }

    #[test]
    fn ranking_ap_hand_cases() {
        // Perfect ranking.
        assert_eq!(ranking_average_precision(&[true, true, false, false]), 1.0);
        // Relevant at ranks 2 and 4: AP = (1/2 + 2/4)/2 = 0.5.
        let ap = ranking_average_precision(&[false, true, false, true]);
        assert!((ap - 0.5).abs() < 1e-12);
        // No relevant items.
        assert_eq!(ranking_average_precision(&[false, false]), 0.0);
        assert_eq!(ranking_average_precision(&[]), 0.0);
        // Worst case: single relevant item last of n.
        let mut v = vec![false; 10];
        v[9] = true;
        assert!((ranking_average_precision(&v) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn trace_helpers() {
        let t = SearchTrace::new(vec![false, true, true]);
        assert_eq!(t.shown(), 3);
        assert_eq!(t.found(), 2);
    }
}
