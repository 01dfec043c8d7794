//! Vector stores for maximum-inner-product search (paper §2.2).
//!
//! SeeSaw uses Annoy: an *approximate* store is acceptable because "even
//! if the exact result were returned, there is already error inherent to
//! the embedding representation". This crate provides three backends and
//! a horizontal sharding layer over all of them:
//!
//! * [`ExactStore`] — a brute-force scan, the accuracy reference;
//! * [`RpForest`] — an Annoy-style forest of random-projection trees
//!   (split by the midplane of two sampled points; query with a shared
//!   priority queue across trees; exact re-rank of the candidate union);
//! * [`IvfStore`] — an inverted-file index: a k-means coarse quantizer
//!   partitions the data into lists, queries scan only the `n_probe`
//!   best-matching lists;
//! * [`ShardedStore`] — row-partitions any backend into N shards, fans
//!   queries out with scoped threads, and k-way-merges the per-shard
//!   results with the deterministic tie-break (descending score,
//!   ascending id), so sharded-exact search is bit-identical to the
//!   unsharded scan.
//!
//! [`StoreConfig`] names a backend (plus an optional shard count and,
//! for the dense-row backends, a [`RowPrecision`]) as plain data, and
//! [`StoreConfig::build`] materializes it as an [`AnyStore`]; the
//! engine's preprocessing pipeline selects backends through it instead
//! of hardcoding one.
//!
//! [`ExactStore`] and [`IvfStore`] keep their rows in a [`RowStorage`]
//! buffer: plain `f32` (default), IEEE binary16 ([`RowPrecision::F16`])
//! which halves scan bandwidth, scalar-quantized u8
//! ([`RowPrecision::Sq8`]) which quarters it, or product-quantized
//! codes ([`RowPrecision::Pq`]) which scan `m` bytes per *row* through
//! per-query ADC lookup tables — sub-byte per element whenever
//! `m < dim`. Both quantized tiers exactly re-rank the top
//! `k × rerank_factor` candidates (default [`SQ8_RERANK_FACTOR`],
//! configurable via [`StoreConfig::with_rerank_factor`]) against the
//! retained f32 source rows, which [`spill_rerank_rows`] can demote to
//! a demand-paged mmap sidecar — see the `storage` module docs for the
//! precision semantics and the per-precision bit-identity guarantees.
//!
//! The [`diskindex`] module persists any [`AnyStore`] to a versioned,
//! checksummed, section-aligned on-disk format and loads it back with
//! a zero-copy `mmap(2)` of the row payloads ([`save_store`] /
//! [`load_store`]), so a cold start costs milliseconds instead of a
//! rebuild: the dense tiers map their row buffers straight out of the
//! file, and loaded stores answer queries bit-identically to the
//! in-RAM stores they were saved from.
//!
//! Every backend implements [`VectorStore`], which is object-safe and
//! `Send + Sync`, and all support filtered queries so the engine can
//! exclude already-shown images (Listing 1 never repeats results).
//!
//! ## Backend selection matrix
//!
//! The §2.2 framing: embedding error dominates retrieval error, so an
//! approximate store that returns *almost* the exact top-k loses almost
//! no end-to-end accuracy while cutting latency by orders of magnitude.
//! Which backend to pick:
//!
//! | backend      | accuracy                | lookup cost                 | memory            | use when |
//! |--------------|-------------------------|-----------------------------|-------------------|----------|
//! | `ExactStore` | exact (recall 1.0)      | O(N·d) full scan            | raw vectors only  | small N, ground truth, equivalence tests |
//! | `RpForest`   | recall ≳ 0.85 @ default `search_k` (floor asserted in `tests/store_equivalence.rs`) | O(search_k·d) + tree walks | vectors + ~2N tree nodes per tree | the paper's choice: large N, interactive latency |
//! | `IvfStore`   | recall ≳ 0.70 @ default `n_probe` (same suite), → 1.0 as `n_probe → n_lists` | O((n_probe/n_lists)·N·d) + centroid scan | vectors + centroids + list ids | large N with a tunable recall/latency dial, clustered data |
//!
//! Any of the three can be wrapped in [`ShardedStore`]: results are
//! identical to the unsharded backend built per shard (bit-identical
//! for `ExactStore`), latency drops toward 1/N of the unsharded scan on
//! N idle cores, and memory is unchanged (rows are partitioned, not
//! copied). Shard when the per-query scan dominates latency and cores
//! are available — i.e. `ExactStore` at medium N, or any backend under
//! heavy concurrent load.

//! ## Blocked scans
//!
//! All backends score through the `seesaw_linalg::kernels` primitives
//! (one canonical accumulation order — which is what makes the
//! bit-identity guarantees above hold by construction), the dense
//! scans walk the data in cache-sized row blocks, and bounded
//! selection uses [`TopKSelector`] (a binary max-heap of the worst
//! retained hit, O(log k) per candidate) instead of a sorted-buffer
//! insert. Every lookup is one query vector under one filter
//! ([`VectorStore::top_k_budgeted`]) — the shape of the interactive
//! loop, where each session brings its own "not yet shown" set.

pub mod annoy;
pub mod config;
pub mod diskindex;
pub mod exact;
pub mod ivf;
#[cfg(test)]
mod proptests;
pub mod recall;
pub mod sharded;
pub mod storage;

use std::collections::BinaryHeap;

pub use annoy::{RpForest, RpForestConfig};
pub use config::{AnyStore, StoreConfig};
pub use diskindex::{
    encode_store, fnv1a64, load_store, save_store, spill_rerank_rows, store_from_file,
    DiskIndexError, IndexFile, IndexFileBuilder, MappedSlice, Mmap,
};
pub use exact::ExactStore;
pub use ivf::{IvfConfig, IvfStore};
pub use recall::recall_at_k;
pub use sharded::{merge_hits, ShardedStore};
pub use storage::{
    Buf, PqRows, RowPrecision, RowStorage, Sq8Rows, PQ_DEFAULT_M, PQ_DEFAULT_NBITS, PQ_TRAIN_SEED,
    SQ8_RERANK_FACTOR,
};

/// A scored hit: item id plus its inner product with the query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// Item (vector) id.
    pub id: u32,
    /// Inner product with the query.
    pub score: f32,
}

/// The crate's canonical ranking order over scored hits: descending
/// score, ties broken by ascending id. This is a *total* order —
/// scores compare through [`f32::total_cmp`], so a NaN score (possible
/// from degenerate inputs such as zero-norm embeddings) still lands in
/// one deterministic position (positive NaN sorts above `+inf`,
/// negative NaN below `-inf`) instead of collapsing the comparator to
/// `Equal` and making the sort order depend on insertion order.
///
/// Every ranked surface of the workspace — the selection heaps here,
/// the sharded k-way merge, and the engine's candidate ranking — must
/// compare through this one function so that "sorted hits" means the
/// same thing everywhere.
#[inline]
pub fn hit_order(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(a.id.cmp(&b.id))
}

/// The item filter passed to queries. `Sync` so sharded stores can
/// apply it from worker threads.
pub type KeepFn<'a> = dyn Fn(u32) -> bool + Sync + 'a;

/// Maximum-inner-product top-k interface shared by every backend.
///
/// Object-safe and `Send + Sync`: a `Box<dyn VectorStore>` can be
/// queried from any thread, and [`ShardedStore`] fans queries out to
/// scoped worker threads.
pub trait VectorStore: Send + Sync {
    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// True when the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Top-`k` items by inner product with `query`, among items for
    /// which `keep` returns true. Results are sorted by descending
    /// score; ties broken by ascending id for determinism.
    fn top_k_filtered(&self, query: &[f32], k: usize, keep: &KeepFn) -> Vec<Hit>;

    /// Top-`k` with an explicit candidate budget — the accuracy/latency
    /// dial, uniform across backends: `RpForest` reads it as `search_k`,
    /// `IvfStore` probes lists until the budget is covered, and the
    /// exact scan (already exhaustive) ignores it. A budget of
    /// `usize::MAX` makes every backend exhaustive.
    fn top_k_budgeted(&self, query: &[f32], k: usize, budget: usize, keep: &KeepFn) -> Vec<Hit> {
        let _ = budget;
        self.top_k_filtered(query, k, keep)
    }

    /// Unfiltered top-`k`.
    fn top_k(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.top_k_filtered(query, k, &|_| true)
    }
}

/// Deterministically sort hits under [`hit_order`]. The hot paths now
/// select through [`TopKSelector`]; this full sort stays as the
/// reference order for the test suites.
#[cfg(test)]
pub(crate) fn sort_hits(hits: &mut [Hit]) {
    hits.sort_unstable_by(hit_order);
}

/// Heap entry ordered so the *worst* retained hit (lowest score; among
/// equal scores the highest id, since ascending ids win ties) sits at
/// the root of a max-heap.
#[derive(Clone, Copy, Debug)]
struct WorstFirst(Hit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Under [`hit_order`], "greater" means "ranks later" — exactly
        // the hit a worst-at-the-root max-heap must surface.
        hit_order(&self.0, &other.0)
    }
}

/// Bounded top-`k` selection under the crate's deterministic total
/// order (descending score, ties broken by ascending id).
///
/// A binary max-heap keyed on the *worst* retained hit replaces the
/// historical sorted-buffer `Vec::insert` (which paid an O(k) memmove
/// per accepted candidate): [`TopKSelector::insert`] is one comparison
/// against the heap root for a rejected candidate and O(log k) for an
/// accepted one. Because the order is total over distinct ids, the
/// retained set — and therefore the sorted output — is independent of
/// insertion order, which is what lets the IVF probe walk and the
/// sharded merge visit rows in any order and still match the
/// sequential scan bit for bit.
#[derive(Clone, Debug)]
pub struct TopKSelector {
    k: usize,
    heap: BinaryHeap<WorstFirst>,
}

impl TopKSelector {
    /// A selector retaining the best `k` hits.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(1 << 20)),
        }
    }

    /// Offer one candidate.
    #[inline]
    pub fn insert(&mut self, id: u32, score: f32) {
        if self.k == 0 {
            return;
        }
        let cand = WorstFirst(Hit { id, score });
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if cand < *worst {
                *worst = cand;
            }
        }
    }

    /// Number of hits currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The score a candidate must beat to be retained (`-∞` until the
    /// selector is full). Candidates scoring exactly the threshold may
    /// still enter on the id tie-break.
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::NEG_INFINITY
        } else {
            self.heap.peek().map_or(f32::NEG_INFINITY, |w| w.0.score)
        }
    }

    /// Consume the selector, returning the retained hits sorted by
    /// descending score, ascending id.
    pub fn into_sorted_hits(self) -> Vec<Hit> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|w| w.0)
            .collect()
    }
}

#[cfg(test)]
mod selector_tests {
    use super::*;

    #[test]
    fn selector_matches_full_sort_for_any_insertion_order() {
        let scores = [0.5f32, -1.0, 0.5, 2.0, 0.25, 0.5, -0.5, 2.0];
        let mut all: Vec<Hit> = scores
            .iter()
            .enumerate()
            .map(|(id, &score)| Hit {
                id: id as u32,
                score,
            })
            .collect();
        sort_hits(&mut all);
        for k in 0..=scores.len() + 1 {
            // Forward and reverse insertion must retain the same set.
            for rev in [false, true] {
                let mut sel = TopKSelector::new(k);
                let order: Vec<usize> = if rev {
                    (0..scores.len()).rev().collect()
                } else {
                    (0..scores.len()).collect()
                };
                for i in order {
                    sel.insert(i as u32, scores[i]);
                }
                let got = sel.into_sorted_hits();
                assert_eq!(got, all[..k.min(all.len())].to_vec(), "k={k} rev={rev}");
            }
        }
    }

    #[test]
    fn selector_tie_break_prefers_lower_id_even_at_threshold() {
        let mut sel = TopKSelector::new(2);
        sel.insert(7, 1.0);
        sel.insert(9, 1.0);
        // Equal score, lower id: must evict id 9.
        sel.insert(3, 1.0);
        let hits = sel.into_sorted_hits();
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn selector_threshold_tracks_worst_retained() {
        let mut sel = TopKSelector::new(2);
        assert_eq!(sel.threshold(), f32::NEG_INFINITY);
        sel.insert(0, 1.0);
        assert_eq!(sel.threshold(), f32::NEG_INFINITY);
        sel.insert(1, 3.0);
        assert_eq!(sel.threshold(), 1.0);
        sel.insert(2, 2.0);
        assert_eq!(sel.threshold(), 2.0);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn nan_scores_rank_deterministically() {
        // hit_order is total: a (positive) NaN score sorts above +inf,
        // so a degenerate embedding cannot scramble the ranking — it
        // just lands in one fixed slot. Insertion order must not
        // matter even with NaN present.
        let scores = [1.0f32, f32::NAN, 2.0, f32::INFINITY, -1.0];
        let mut reference: Vec<Hit> = scores
            .iter()
            .enumerate()
            .map(|(id, &score)| Hit {
                id: id as u32,
                score,
            })
            .collect();
        reference.sort_unstable_by(hit_order);
        assert_eq!(
            reference.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![1, 3, 2, 0, 4],
            "NaN first, then +inf, then finite scores descending"
        );
        for rev in [false, true] {
            let mut sel = TopKSelector::new(3);
            let order: Vec<usize> = if rev {
                (0..scores.len()).rev().collect()
            } else {
                (0..scores.len()).collect()
            };
            for i in order {
                sel.insert(i as u32, scores[i]);
            }
            let got: Vec<u32> = sel.into_sorted_hits().iter().map(|h| h.id).collect();
            assert_eq!(got, vec![1, 3, 2], "rev={rev}");
        }
    }

    #[test]
    fn zero_k_selector_retains_nothing() {
        let mut sel = TopKSelector::new(0);
        sel.insert(0, 1.0);
        assert!(sel.is_empty());
        assert!(sel.into_sorted_hits().is_empty());
    }
}
