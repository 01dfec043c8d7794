//! Which concept each session searches for: Zipf(1.0) over the
//! dataset's query list, drawn from `--seed` and nothing else.
//!
//! Sessions are planned in blocks shared by all clients. Within a block
//! the draws are a systematic sample of the Zipf distribution — one
//! seeded offset, then evenly spaced quantiles, shuffled — instead of
//! independent draws. Popular concepts still repeat and the tail still
//! changes from seed to seed, but the mix of easy and hard queries in a
//! block varies far less than independent draws would make it, which is
//! what lets `mean_ap` be compared across seeds at all.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::spec::CLIENTS;

/// The seeded session plan of one workload run.
#[derive(Clone, Debug)]
pub struct SessionPlan {
    seed: u64,
    /// Cumulative Zipf(1.0) weights over query ranks, normalised to 1.
    cdf: Vec<f64>,
    /// Sessions per client per block.
    per_client: usize,
}

impl SessionPlan {
    /// A plan over `n_queries` concepts in blocks of `per_client`
    /// sessions for each client.
    pub fn new(seed: u64, n_queries: usize, per_client: usize) -> Self {
        assert!(n_queries > 0, "a plan needs at least one query");
        assert!(per_client > 0, "a block needs at least one session");
        let weights: Vec<f64> = (1..=n_queries).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self {
            seed,
            cdf,
            per_client,
        }
    }

    /// The query-list indices of `client`'s sessions, in order.
    /// `stream` separates the warm-up sessions (1) from the measured
    /// ones (0), so the measured plan does not depend on how much
    /// warm-up fit.
    pub fn sessions(&self, stream: u64, client: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(client < CLIENTS, "client {client} out of range");
        (0u64..).flat_map(move |block| {
            let slots = self.block(stream, block);
            let start = client * self.per_client;
            slots.into_iter().skip(start).take(self.per_client)
        })
    }

    fn block(&self, stream: u64, block: u64) -> Vec<usize> {
        let n = self.per_client * CLIENTS;
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)
                ^ block.wrapping_mul(0xe703_7ed1_a0b4_28db),
        );
        let offset: f64 = rng.gen();
        let mut slots: Vec<usize> = (0..n)
            .map(|j| {
                let u = (j as f64 + offset) / n as f64;
                self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
            })
            .collect();
        slots.shuffle(&mut rng);
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let a = SessionPlan::new(7, 80, 16);
        let b = SessionPlan::new(7, 80, 16);
        let c = SessionPlan::new(8, 80, 16);
        let draw = |p: &SessionPlan| -> Vec<usize> {
            (0..CLIENTS)
                .flat_map(|client| p.sessions(0, client).take(64))
                .collect()
        };
        assert_eq!(draw(&a), draw(&b));
        assert_ne!(draw(&a), draw(&c));
    }

    #[test]
    fn blocks_follow_zipf() {
        // Rank 1 holds 1/H_80 ≈ 0.2 of the mass: about a fifth of a
        // large block, and every index stays in range.
        let plan = SessionPlan::new(3, 80, 500);
        let mut first = 0usize;
        for client in 0..CLIENTS {
            for q in plan.sessions(0, client).take(500) {
                assert!(q < 80);
                first += usize::from(q == 0);
            }
        }
        assert!((190..=215).contains(&first), "rank-1 draws: {first}");
    }

    #[test]
    fn warm_up_stream_is_independent() {
        let plan = SessionPlan::new(7, 80, 16);
        let measured: Vec<usize> = plan.sessions(0, 0).take(16).collect();
        let warm: Vec<usize> = plan.sessions(1, 0).take(16).collect();
        assert_ne!(measured, warm);
    }
}
