//! Horizontal sharding over any [`VectorStore`] backend.
//!
//! The ROADMAP's production framing needs the store to scale with
//! cores, not just with approximation: [`ShardedStore`] row-partitions
//! the data across N independent backend instances, fans each query out
//! with `std::thread::scope`, and k-way-merges the per-shard top-k
//! lists under the crate-wide tie-break (descending score, ascending
//! id). Because every shard scores its rows with the same `dot` over
//! the same bytes, merging exact shards reproduces the unsharded exact
//! scan *bit for bit* — the equivalence suite in
//! `tests/store_equivalence.rs` locks this in for shard counts
//! {1, 2, 3, 7}.
//!
//! Each query spawns one scoped thread per shard; that per-query spawn
//! cost (tens of µs on typical hardware) only pays off once the
//! per-shard scan dominates it — shard when N is large or lookups are
//! budget-heavy, not for toy stores, and expect no speedup on a
//! single-core host.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{Hit, KeepFn, VectorStore};

/// One shard: a backend over a row subset plus the local→global id map.
#[derive(Clone, Debug)]
struct Shard<S> {
    store: S,
    /// `ids[local]` is the global id of the shard's `local`-th row.
    ids: Vec<u32>,
}

/// A row-partitioned store that queries its shards in parallel.
///
/// Build with [`ShardedStore::build`] (contiguous blocks) or
/// [`ShardedStore::build_with_assignment`] (arbitrary partition); the
/// `make` callback constructs the backend for each shard's sub-buffer,
/// so any [`VectorStore`] implementation can be sharded.
#[derive(Clone, Debug)]
pub struct ShardedStore<S> {
    dim: usize,
    len: usize,
    shards: Vec<Shard<S>>,
}

impl<S: VectorStore> ShardedStore<S> {
    /// Partition `data` into `n_shards` contiguous row blocks.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim` or
    /// `n_shards == 0`.
    pub fn build(
        dim: usize,
        data: Vec<f32>,
        n_shards: usize,
        make: impl Fn(usize, Vec<f32>) -> S,
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "buffer is not a multiple of dim");
        let n = data.len() / dim;
        let assignment = contiguous_assignment(n, n_shards);
        Self::build_with_assignment(dim, data, &assignment, n_shards, make)
    }

    /// Partition `data` by an explicit row→shard assignment
    /// (`assignment[row] < n_shards`). Exposed so tests can prove the
    /// merge is invariant to how rows land on shards.
    ///
    /// # Panics
    /// Panics on a buffer/`dim` mismatch, `n_shards == 0`, an
    /// `assignment` whose length differs from the row count, or an
    /// out-of-range shard index.
    pub fn build_with_assignment(
        dim: usize,
        data: Vec<f32>,
        assignment: &[usize],
        n_shards: usize,
        make: impl Fn(usize, Vec<f32>) -> S,
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "buffer is not a multiple of dim");
        assert!(n_shards > 0, "need at least one shard");
        let n = data.len() / dim;
        assert_eq!(assignment.len(), n, "assignment length != row count");

        let mut parts: Vec<(Vec<f32>, Vec<u32>)> = vec![(Vec::new(), Vec::new()); n_shards];
        for (row, &shard) in assignment.iter().enumerate() {
            assert!(shard < n_shards, "shard index {shard} out of range");
            let (buf, ids) = &mut parts[shard];
            buf.extend_from_slice(&data[row * dim..(row + 1) * dim]);
            ids.push(row as u32);
        }
        let shards = parts
            .into_iter()
            .map(|(buf, ids)| Shard {
                store: make(dim, buf),
                ids,
            })
            .collect();
        Self {
            dim,
            len: n,
            shards,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Global ids held by shard `s`, in local-row order.
    pub fn shard_ids(&self, s: usize) -> &[u32] {
        &self.shards[s].ids
    }

    /// Borrow shard `s`'s backend store (the persistence layer reads
    /// rows back out of it; local row `i` is global id
    /// `shard_ids(s)[i]`).
    pub(crate) fn shard_store(&self, s: usize) -> &S {
        &self.shards[s].store
    }

    /// Query every shard (in parallel when there is more than one),
    /// remap local ids to global, and merge. A candidate budget is
    /// *divided* across shards (floored at `k`) so the sharded query
    /// does the same total work as the unsharded one at the same
    /// budget — that division is what turns sharding into a latency
    /// win rather than a hidden recall boost.
    fn fan_out(&self, query: &[f32], k: usize, budget: Option<usize>, keep: &KeepFn) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        let budget = budget.map(|b| b.div_ceil(self.shards.len()).max(k));
        let query_shard = |shard: &Shard<S>| -> Vec<Hit> {
            let ids = &shard.ids;
            let local_keep = |local: u32| keep(ids[local as usize]);
            let mut hits = match budget {
                Some(b) => shard.store.top_k_budgeted(query, k, b, &local_keep),
                None => shard.store.top_k_filtered(query, k, &local_keep),
            };
            for h in &mut hits {
                h.id = ids[h.id as usize];
            }
            hits
        };
        if self.shards.len() == 1 {
            return query_shard(&self.shards[0]);
        }
        let query_shard = &query_shard;
        let per_shard: Vec<Vec<Hit>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || query_shard(shard)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        merge_hits(&per_shard, k)
    }
}

impl<S: VectorStore> VectorStore for ShardedStore<S> {
    fn len(&self) -> usize {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn top_k_filtered(&self, query: &[f32], k: usize, keep: &KeepFn) -> Vec<Hit> {
        self.fan_out(query, k, None, keep)
    }

    fn top_k_budgeted(&self, query: &[f32], k: usize, budget: usize, keep: &KeepFn) -> Vec<Hit> {
        self.fan_out(query, k, Some(budget), keep)
    }
}

/// Contiguous block partition: the first `n % n_shards` shards get one
/// extra row so sizes differ by at most one.
fn contiguous_assignment(n: usize, n_shards: usize) -> Vec<usize> {
    assert!(n_shards > 0, "need at least one shard");
    let base = n / n_shards;
    let extra = n % n_shards;
    let mut out = Vec::with_capacity(n);
    for s in 0..n_shards {
        let size = base + usize::from(s < extra);
        out.resize(out.len() + size, s);
    }
    out
}

/// K-way-merge per-shard hit lists (each already sorted by descending
/// score, ascending id — the [`VectorStore`] contract) into the global
/// top-`k` under the same order. Deterministic: equal scores break by
/// ascending global id regardless of which shard produced them.
pub fn merge_hits(per_shard: &[Vec<Hit>], k: usize) -> Vec<Hit> {
    struct Head {
        hit: Hit,
        part: usize,
        pos: usize,
    }
    impl PartialEq for Head {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Head {}
    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Head {
        // Max-heap order: the best-ranked head (under the canonical
        // total order) at the root.
        fn cmp(&self, other: &Self) -> Ordering {
            crate::hit_order(&other.hit, &self.hit)
        }
    }

    let mut heap = BinaryHeap::with_capacity(per_shard.len());
    for (part, hits) in per_shard.iter().enumerate() {
        if let Some(&hit) = hits.first() {
            heap.push(Head { hit, part, pos: 0 });
        }
    }
    let mut out = Vec::with_capacity(k.min(per_shard.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(Head { hit, part, pos }) = heap.pop() else {
            break;
        };
        out.push(hit);
        if let Some(&next) = per_shard[part].get(pos + 1) {
            heap.push(Head {
                hit: next,
                part,
                pos: pos + 1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seesaw_linalg::random_unit_vector;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            data.extend_from_slice(&random_unit_vector(&mut rng, dim));
        }
        data
    }

    fn sharded_exact(dim: usize, data: Vec<f32>, shards: usize) -> ShardedStore<ExactStore> {
        ShardedStore::build(dim, data, shards, ExactStore::new)
    }

    #[test]
    fn matches_unsharded_exact_bitwise() {
        let dim = 8;
        let data = random_data(101, dim, 1);
        let exact = ExactStore::new(dim, data.clone());
        let q = random_unit_vector(&mut StdRng::seed_from_u64(2), dim);
        let truth = exact.top_k(&q, 13);
        for shards in [1, 2, 3, 7] {
            let sharded = sharded_exact(dim, data.clone(), shards);
            assert_eq!(sharded.len(), 101);
            let got = sharded.top_k(&q, 13);
            assert_eq!(truth.len(), got.len());
            for (t, g) in truth.iter().zip(&got) {
                assert_eq!(t.id, g.id, "{shards} shards");
                assert_eq!(t.score.to_bits(), g.score.to_bits(), "{shards} shards");
            }
        }
    }

    #[test]
    fn filter_applies_to_global_ids() {
        let dim = 4;
        let data = random_data(40, dim, 3);
        let sharded = sharded_exact(dim, data.clone(), 3);
        let hits = sharded.top_k_filtered(&data[..dim], 10, &|id| id % 2 == 0);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.id % 2 == 0));
    }

    #[test]
    fn more_shards_than_rows_is_fine() {
        let dim = 4;
        let data = random_data(3, dim, 4);
        let sharded = sharded_exact(dim, data.clone(), 7);
        assert_eq!(sharded.n_shards(), 7);
        let hits = sharded.top_k(&data[..dim], 10);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn empty_store_returns_nothing() {
        let sharded = sharded_exact(4, vec![], 3);
        assert!(sharded.is_empty());
        assert!(sharded.top_k(&[1.0, 0.0, 0.0, 0.0], 5).is_empty());
    }

    #[test]
    fn merge_respects_tie_break_across_parts() {
        // Two parts with an equal score: the lower id must win even
        // when it sits in the later part.
        let parts = vec![
            vec![Hit { id: 9, score: 0.5 }, Hit { id: 1, score: 0.25 }],
            vec![Hit { id: 2, score: 0.5 }],
        ];
        let merged = merge_hits(&parts, 3);
        assert_eq!(
            merged.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![2, 9, 1]
        );
    }

    #[test]
    fn merge_handles_empty_parts_and_small_k() {
        let parts = vec![vec![], vec![Hit { id: 0, score: 1.0 }], vec![]];
        assert_eq!(merge_hits(&parts, 0), vec![]);
        assert_eq!(merge_hits(&parts, 5).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = sharded_exact(4, vec![], 0);
    }
}
