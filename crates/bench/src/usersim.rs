//! The §5.5 user simulator.
//!
//! The paper's end-to-end study decomposes task time into per-image
//! annotation time (Table 5) plus system latency, measured over 20 grad
//! students and 20 MTurk workers. We reproduce the decomposition with
//! the paper's measured per-image costs ([`AnnotationModel`]).
//!
//! Simulated users draw a personal speed factor (lognormal) and
//! per-image lognormal noise; task time accumulates annotation costs
//! and per-iteration system latency until 10 results are found or the
//! 6-minute cap expires (Fig. 6's protocol).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};
use seesaw_metrics::SearchTrace;

/// Per-image annotation cost model (seconds).
#[derive(Clone, Copy, Debug)]
pub struct AnnotationModel {
    /// Mean seconds to skip a non-relevant image.
    pub not_marked: f64,
    /// Mean seconds to mark a relevant image (including box feedback
    /// where applicable).
    pub marked: f64,
}

impl AnnotationModel {
    /// The baseline UI costs measured in Table 5 (mark = keystroke).
    pub fn baseline() -> Self {
        Self {
            not_marked: 1.98,
            marked: 3.00,
        }
    }

    /// The SeeSaw UI costs measured in Table 5 (mark = keystroke + box).
    pub fn seesaw() -> Self {
        Self {
            not_marked: 2.40,
            marked: 4.40,
        }
    }
}

/// Task deadline in seconds (paper: 360).
const DEADLINE: f64 = 360.0;
/// Results required to complete the task (paper: 10).
const TARGET_RESULTS: usize = 10;
/// σ of the per-user lognormal speed factor.
pub(crate) const USER_SIGMA: f64 = 0.25;
/// σ of the per-image lognormal noise.
pub(crate) const IMAGE_SIGMA: f64 = 0.35;

/// A lognormal with **unit mean** (`exp(−σ²/2 + σZ)`), so noise scales
/// the paper's measured means without biasing them.
pub fn unit_mean_lognormal(sigma: f64) -> LogNormal<f64> {
    LogNormal::new(-sigma * sigma / 2.0, sigma).expect("valid lognormal")
}

/// Simulate one user working through a search trace: returns the time
/// (seconds, capped at the 360 s deadline) until 10 relevant images
/// were marked. `latencies` gives the measured per-iteration
/// system time (shorter slices are cycled; empty means zero latency).
pub fn simulate_task_time(
    trace: &SearchTrace,
    latencies: &[f64],
    model: &AnnotationModel,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let user_speed = unit_mean_lognormal(USER_SIGMA).sample(&mut rng);
    let image_noise = unit_mean_lognormal(IMAGE_SIGMA);
    let mut t = 0.0f64;
    let mut found = 0usize;
    for (i, &relevant) in trace.relevance.iter().enumerate() {
        if !latencies.is_empty() {
            t += latencies[i % latencies.len()];
        }
        let mean = if relevant {
            model.marked
        } else {
            model.not_marked
        };
        t += mean * user_speed * image_noise.sample(&mut rng);
        if t >= DEADLINE {
            return DEADLINE;
        }
        if relevant {
            found += 1;
            if found >= TARGET_RESULTS {
                return t;
            }
        }
    }
    // Ran out of trace before finding enough: the user never completes.
    DEADLINE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_relevant(n: usize) -> SearchTrace {
        SearchTrace::new(vec![true; n])
    }

    #[test]
    fn fast_task_completes_before_deadline() {
        let t = simulate_task_time(&all_relevant(10), &[0.1], &AnnotationModel::baseline(), 1);
        assert!(t < 360.0);
        assert!(t > 10.0 * 1.0, "ten marked images cost real time: {t}");
    }

    #[test]
    fn hopeless_trace_hits_deadline() {
        let trace = SearchTrace::new(vec![false; 30]);
        let t = simulate_task_time(&trace, &[], &AnnotationModel::seesaw(), 2);
        assert_eq!(t, 360.0);
    }

    #[test]
    fn seesaw_annotation_overhead_is_visible() {
        // Same trace, same user seed: SeeSaw marking costs more per
        // image (Table 5), so an easy task takes longer — the paper's
        // observation that "SeeSaw can be slower than the baseline" on
        // easy queries.
        let trace = all_relevant(10);
        let base = simulate_task_time(&trace, &[], &AnnotationModel::baseline(), 3);
        let ss = simulate_task_time(&trace, &[], &AnnotationModel::seesaw(), 3);
        assert!(ss > base, "seesaw {ss} vs baseline {base}");
    }

    #[test]
    fn deterministic_per_seed() {
        let trace = all_relevant(10);
        let a = simulate_task_time(&trace, &[0.2], &AnnotationModel::baseline(), 9);
        let b = simulate_task_time(&trace, &[0.2], &AnnotationModel::baseline(), 9);
        assert_eq!(a, b);
    }
}
