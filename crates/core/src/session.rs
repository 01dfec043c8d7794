//! The interactive search session — Listing 1 of the paper, for every
//! method under evaluation.
//!
//! ```text
//! feedback_map ← {}
//! query_vector ← CLIP.embed_string(text_query)
//! while true:
//!     img_id       ← vector_store.lookup(query_vector)
//!     img_feedback ← UI.show(img_id)
//!     feedback_map.update(img_id, img_feedback)
//!     query_vector ← query_align(feedback_map)
//! ```
//!
//! The session keeps `query_vector` as a cache of
//! `query_align(feedback_map)`: feedback records its labels and empties
//! the cache, and the next read — the lookup, a stats request, any
//! [`Session::current_query`] — solves once on everything recorded so
//! far. A batch of b labels therefore costs one solve, not b, and each
//! lookup sees the same query as if it had been solved after every
//! label, since every solve starts from `q₀` on the full example set.
//!
//! The [`Method`] enum selects what `query_align` does: nothing
//! (zero-shot), Rocchio's formula, the ENS active-search policy, the
//! SeeSaw aligner — few-shot CLIP (Eq. 1), CLIP alignment, or CLIP + DB
//! alignment, by its [`AlignerConfig`] — or the label-propagation
//! variant (`prop.`, the Table 6 comparator).

use seesaw_aligner::{AlignerConfig, QueryAligner};
use seesaw_baselines::{EnsSearcher, Rocchio};
use seesaw_dataset::{ImageId, SyntheticDataset};
use seesaw_embed::ConceptId;
use seesaw_knn::propagate_labels;
use seesaw_linalg::normalized;
use seesaw_vecstore::VectorStore;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::index::DatasetIndex;
use crate::user::Feedback;

/// Which `query_align` strategy a session runs.
#[derive(Clone, Debug)]
pub enum Method {
    /// CLIP alone — the fixed `q₀`, feedback ignored.
    ZeroShot,
    /// A caller-supplied fixed query vector (used for the Fig. 4 ideal
    /// vector and diagnostics).
    FixedVector(Vec<f32>),
    /// Rocchio's algorithm (Eq. 6) with the paper's β = .5, γ = .25.
    Rocchio,
    /// Efficient Nonmyopic Search over coarse embeddings, with CLIP
    /// priors; `priors` overrides them (Platt-calibrated variant).
    Ens {
        /// Initial reward horizon (paper: 60).
        horizon: usize,
        /// Optional calibrated per-image priors (Table 4 second row).
        priors: Option<Vec<f32>>,
    },
    /// The SeeSaw aligner. With `lambda_c = lambda_d = 0` it is
    /// few-shot CLIP (Eq. 1); DB alignment activates when the index
    /// carries an `M_D` and `lambda_d > 0`.
    SeeSaw(AlignerConfig),
    /// SeeSaw with explicit label propagation every round — the
    /// interactivity comparator of Table 6 (§4.2 explains why this is
    /// the slow path). It fits the CLIP-alignment-only aligner
    /// ([`AlignerConfig::clip_only`]) on `PROP_FIT_SAMPLE` (2000)
    /// pseudo-labeled vectors.
    SeeSawProp,
}

/// How many pseudo-labeled vectors [`Method::SeeSawProp`] fits on.
const PROP_FIT_SAMPLE: usize = 2000;

/// A method plus the lookup budget.
#[derive(Clone, Debug)]
pub struct MethodConfig {
    /// The `query_align` strategy.
    pub method: Method,
    /// Vector-store candidate budget per lookup — the RP forest reads
    /// it as Annoy's `search_k`, the IVF store probes lists until it is
    /// covered, and the exact scan ignores it.
    pub search_k: usize,
}

impl MethodConfig {
    /// Zero-shot CLIP.
    pub fn zero_shot() -> Self {
        Self {
            method: Method::ZeroShot,
            search_k: 8192,
        }
    }

    /// Rocchio with the paper's β = .5, γ = .25.
    pub fn rocchio() -> Self {
        Self {
            method: Method::Rocchio,
            search_k: 8192,
        }
    }

    /// ENS with the paper's settings (k = 20 graph built at preprocess,
    /// horizon 60, CLIP priors).
    pub fn ens(horizon: usize) -> Self {
        Self {
            method: Method::Ens {
                horizon,
                priors: None,
            },
            search_k: 8192,
        }
    }

    /// ENS with externally calibrated priors (Table 4, bottom row).
    pub fn ens_calibrated(horizon: usize, priors: Vec<f32>) -> Self {
        Self {
            method: Method::Ens {
                horizon,
                priors: Some(priors),
            },
            search_k: 8192,
        }
    }

    /// Full SeeSaw (CLIP + DB alignment, paper hyperparameters).
    pub fn seesaw() -> Self {
        Self {
            method: Method::SeeSaw(AlignerConfig::default()),
            search_k: 8192,
        }
    }

    /// SeeSaw with CLIP alignment only (the Table 2 "+Query align" row).
    pub fn seesaw_clip_only() -> Self {
        Self {
            method: Method::SeeSaw(AlignerConfig::clip_only()),
            search_k: 8192,
        }
    }

    /// Few-shot CLIP: the aligner loss with λc = λD = 0, i.e. Eq. 1
    /// without bias (the wire's `"few_shot"`).
    pub fn seesaw_few_shot() -> Self {
        Self {
            method: Method::SeeSaw(AlignerConfig::few_shot()),
            search_k: 8192,
        }
    }

    /// The propagation-based variant (Table 6 `prop.` column).
    pub fn seesaw_prop() -> Self {
        Self {
            method: Method::SeeSawProp,
            search_k: 8192,
        }
    }

    /// Override the lookup budget (builder style).
    pub fn with_search_k(mut self, search_k: usize) -> Self {
        self.search_k = search_k;
        self
    }
}

#[cfg(test)]
impl MethodConfig {
    /// A fixed caller-supplied query vector.
    pub(crate) fn fixed(v: Vec<f32>) -> Self {
        Self {
            method: Method::FixedVector(v),
            search_k: 8192,
        }
    }
}

enum State {
    Fixed,
    Rocchio(Rocchio),
    Ens(Box<EnsSearcher>),
    Aligner(QueryAligner),
    Prop { round: u64 },
}

/// One running query against one index.
///
/// The session *owns* a handle to its index (`Arc<DatasetIndex>`), so it
/// is `Send + 'static` and can be parked in a registry, moved across
/// threads, or held by a long-lived [`crate::service::SearchService`] —
/// no borrowed lifetime ties it to a stack frame.
pub struct Session {
    index: Arc<DatasetIndex>,
    concept: ConceptId,
    q0: Vec<f32>,
    /// `query_align(all feedback so far)`. Only the aligner-family
    /// methods ever empty it (on feedback); the first read refills it.
    query: OnceLock<Vec<f32>>,
    /// Alignment solves run so far (aligner and propagation methods).
    n_solves: AtomicUsize,
    seen: Vec<bool>,
    n_seen: usize,
    n_feedback: usize,
    pending: Vec<ImageId>,
    state: State,
    /// Labeled patch examples shared by the aligner-family methods.
    example_patches: Vec<u32>,
    example_labels: Vec<bool>,
    /// Per-example weights: each image contributes one unit of positive
    /// and one unit of negative evidence regardless of its patch count,
    /// so coarse and multiscale indexes balance the loss identically.
    example_weights: Vec<f32>,
    any_positive: bool,
    search_k: usize,
}

impl Session {
    /// Start a search for `concept` using the dataset's text tower for
    /// `q₀` (Listing 1, line 2).
    pub fn start(
        index: &Arc<DatasetIndex>,
        dataset: &SyntheticDataset,
        concept: ConceptId,
        config: MethodConfig,
    ) -> Self {
        let q0 = dataset.model.embed_text(concept);
        Self::start_with_q0(index, concept, q0, config)
    }

    /// Start with an explicit initial query vector.
    pub fn start_with_q0(
        index: &Arc<DatasetIndex>,
        concept: ConceptId,
        q0: Vec<f32>,
        config: MethodConfig,
    ) -> Self {
        let q0 = normalized(&q0);
        let (state, query) = match config.method {
            Method::ZeroShot => (State::Fixed, q0.clone()),
            Method::FixedVector(v) => {
                assert_eq!(v.len(), index.dim, "fixed vector dimension mismatch");
                let v = normalized(&v);
                (State::Fixed, v)
            }
            Method::Rocchio => (State::Rocchio(Rocchio::new(&q0)), q0.clone()),
            Method::Ens { horizon, priors } => {
                let graph = index
                    .coarse_graph
                    .as_ref()
                    // Not reachable over the wire: SearchService
                    // rejects ENS creates on indexes without a coarse
                    // graph before constructing the session, so this
                    // only fires on direct library misuse.
                    // xtask-allow: F2
                    .expect("ENS requires build_coarse_graph at preprocessing");
                let priors = priors.unwrap_or_else(|| {
                    // Raw CLIP prior (§5.4): the cosine score used
                    // directly as γ_i, clamped into (0, 1) — like real
                    // CLIP scores, deliberately *uncalibrated* when
                    // interpreted as probabilities. One blocked GEMV
                    // over the coarse embeddings, not N row loops.
                    index
                        .coarse_scores(&q0)
                        .into_iter()
                        .map(|s| s.clamp(0.001, 0.999))
                        .collect()
                });
                let searcher = EnsSearcher::new(graph, priors, horizon);
                (State::Ens(Box::new(searcher)), q0.clone())
            }
            Method::SeeSaw(cfg) => {
                let mut aligner = QueryAligner::new(&q0, cfg);
                if aligner.config().lambda_d > 0.0 {
                    if let Some(md) = &index.m_d {
                        aligner = aligner.with_db_matrix(md.clone());
                    }
                }
                (State::Aligner(aligner), q0.clone())
            }
            Method::SeeSawProp => (State::Prop { round: 0 }, q0.clone()),
        };
        Self {
            index: Arc::clone(index),
            concept,
            q0,
            query: OnceLock::from(query),
            n_solves: AtomicUsize::new(0),
            seen: vec![false; index.n_images()],
            n_seen: 0,
            n_feedback: 0,
            pending: Vec::new(),
            state,
            example_patches: Vec::new(),
            example_labels: Vec::new(),
            example_weights: Vec::new(),
            any_positive: false,
            search_k: config.search_k,
        }
    }

    /// Solve `query_align` on the current example set. The one place a
    /// session gathers its examples and solves; it runs only when a
    /// read finds the query cache empty.
    fn realign(&self) -> Vec<f32> {
        self.n_solves.fetch_add(1, Ordering::Relaxed);
        match &self.state {
            State::Aligner(aligner) => {
                let examples: Vec<&[f32]> = self
                    .example_patches
                    .iter()
                    .map(|&p| self.index.patch_vector(p))
                    .collect();
                aligner.align_weighted(&examples, &self.example_labels, Some(&self.example_weights))
            }
            State::Prop { round } => prop_align(
                &self.index,
                &self.q0,
                &self.example_patches,
                &self.example_labels,
                *round,
            ),
            // These store their query whenever it changes and never
            // empty the cache, so no read lands here.
            State::Fixed | State::Rocchio(_) | State::Ens(_) => self.q0.clone(),
        }
    }

    /// The searched concept.
    pub fn concept(&self) -> ConceptId {
        self.concept
    }

    /// The original text query vector.
    pub fn q0(&self) -> &[f32] {
        &self.q0
    }

    /// The current (aligned) query vector: `query_align` over all
    /// feedback so far. The first read after feedback solves for it.
    pub fn current_query(&self) -> &[f32] {
        self.query.get_or_init(|| self.realign())
    }

    /// Alignment solves this session has run: at most one per read
    /// that follows feedback, however many labels that feedback held.
    pub fn n_solves(&self) -> usize {
        self.n_solves.load(Ordering::Relaxed)
    }

    /// Images shown so far.
    pub fn n_seen(&self) -> usize {
        self.n_seen
    }

    /// Feedback items accepted so far.
    pub fn n_feedback(&self) -> usize {
        self.n_feedback
    }

    /// Next batch of up to `n` unseen images (Listing 1, line 4). Fewer
    /// are returned when the database is nearly exhausted, and none
    /// when `n = 0`.
    pub fn next_batch(&mut self, n: usize) -> Vec<ImageId> {
        // More than the unseen remainder returns all of it; the clamp
        // bounds the allocation, the ENS loop and the patch request.
        let n = n.min(self.seen.len() - self.n_seen);
        if n == 0 {
            return Vec::new();
        }
        let mut out: Vec<ImageId> = Vec::with_capacity(n);
        match &mut self.state {
            State::Ens(searcher) if self.any_positive => {
                let seen = &self.seen;
                for _ in 0..n {
                    let picked: &[ImageId] = &out;
                    let pick =
                        searcher.select_next_excluding(|i| picked.contains(&i) || seen[i as usize]);
                    match pick {
                        Some(i) => out.push(i),
                        None => break,
                    }
                }
            }
            _ => {
                // Vector-store lookup, deduplicating patches to images
                // (multiscale: an image's score is its best patch, and
                // the store returns patches in descending score order).
                let per_image = (self.index.n_patches() / self.index.n_images().max(1)).max(1);
                let mut k = (n + 4) * per_image + 16;
                let query = self.current_query();
                loop {
                    let seen = &self.seen;
                    let patches = &self.index.patches;
                    let hits =
                        self.index
                            .store
                            .top_k_budgeted(query, k, self.search_k.max(2 * k), &|p| {
                                let img = patches[p as usize].image;
                                !seen[img as usize]
                            });
                    out.clear();
                    for h in &hits {
                        let img = patches[h.id as usize].image;
                        if !out.contains(&img) {
                            out.push(img);
                            if out.len() == n {
                                break;
                            }
                        }
                    }
                    if out.len() == n || k >= self.index.n_patches() {
                        break;
                    }
                    k = (k * 2).min(self.index.n_patches());
                }
            }
        }
        for &img in &out {
            self.seen[img as usize] = true;
            self.n_seen += 1;
        }
        self.pending.extend_from_slice(&out);
        out
    }

    /// Record feedback for a previously returned image (Listing 1,
    /// line 6). The query realigns (line 7) on its next read, once for
    /// all feedback recorded since the last one.
    ///
    /// # Panics
    /// Panics when the image was not handed out by [`Self::next_batch`].
    /// Server-shaped callers that must not crash on bad client input
    /// should use [`Self::try_feedback`] instead.
    pub fn feedback(&mut self, fb: Feedback) {
        assert!(
            self.try_feedback(fb),
            "feedback for an image that was not shown"
        );
    }

    /// Record feedback like [`Self::feedback`], but report an
    /// out-of-protocol image (one not handed out by
    /// [`Self::next_batch`], or already answered) as `false` instead of
    /// panicking. The session state is untouched when `false` is
    /// returned. Accepted feedback is only recorded: the aligner and
    /// propagation methods defer their solve to the next read of the
    /// query, and Rocchio and ENS update in place.
    pub fn try_feedback(&mut self, fb: Feedback) -> bool {
        let Some(pos) = self.pending.iter().position(|&i| i == fb.image) else {
            return false;
        };
        self.pending.swap_remove(pos);
        self.n_feedback += 1;
        if fb.relevant {
            self.any_positive = true;
        }

        // Patch-level labels (§4.3): with multiscale, a patch is positive
        // iff it overlaps a feedback box; coarse-only labels the single
        // patch with the image relevance.
        let range = self.index.patches_of(fb.image);
        let mut labels = Vec::with_capacity(range.len());
        for p in range.clone() {
            let meta = &self.index.patches[p as usize];
            let label = if self.index.multiscale {
                fb.boxes.iter().any(|b| meta.bbox.overlaps(b))
            } else {
                fb.relevant
            };
            labels.push(label);
        }
        let n_pos = labels.iter().filter(|&&l| l).count().max(1) as f32;
        let n_neg = labels.iter().filter(|&&l| !l).count().max(1) as f32;
        for (p, label) in range.zip(labels) {
            self.example_patches.push(p);
            self.example_labels.push(label);
            self.example_weights
                .push(if label { 1.0 / n_pos } else { 1.0 / n_neg });
        }

        match &mut self.state {
            State::Fixed => {}
            State::Rocchio(rocchio) => {
                rocchio.add_feedback(self.index.coarse_vector(fb.image), fb.relevant);
                self.query = OnceLock::from(rocchio.query());
            }
            State::Ens(searcher) => {
                searcher.observe(fb.image, fb.relevant);
            }
            State::Aligner(aligner) => {
                // Unanchored fits (λc = 0, i.e. pure few-shot) are only
                // meaningful once a positive example exists; refitting
                // on negatives alone sends the query on a random walk.
                // Anchored variants (CLIP alignment) can use negative
                // feedback immediately — the q₀ term keeps them stable.
                if self.any_positive || aligner.config().lambda_c > 0.0 {
                    self.query.take();
                }
            }
            State::Prop { round } => {
                // The round seeds the fit's background sample, so a
                // deferred solve draws what an eager one would have.
                *round += 1;
                self.query.take();
            }
        }
        true
    }
}

/// Rank `(patch, score)` candidates under the workspace's canonical
/// total order (descending score, ascending id —
/// [`seesaw_vecstore::hit_order`]). The historical
/// `partial_cmp(..).unwrap_or(Equal)` comparator collapsed on NaN
/// scores (possible from degenerate/zero-norm embeddings), which made
/// the *unstable* sort's output depend on the input permutation — and
/// therefore made ranking, and everything fit on the ranked sample,
/// nondeterministic.
fn rank_candidates(ranked: &mut [(u32, f32)]) {
    use seesaw_vecstore::{hit_order, Hit};
    ranked.sort_unstable_by(|&(a_id, a_score), &(b_id, b_score)| {
        hit_order(
            &Hit {
                id: a_id,
                score: a_score,
            },
            &Hit {
                id: b_id,
                score: b_score,
            },
        )
    });
}

/// The propagation-based `query_align`: run label propagation over the
/// full patch graph (the expensive part: O(iterations × edges) per
/// round), then fit the CLIP-aligned aligner on a pseudo-labeled
/// sample of [`PROP_FIT_SAMPLE`] vectors.
fn prop_align(
    index: &DatasetIndex,
    q0: &[f32],
    example_patches: &[u32],
    example_labels: &[bool],
    round: u64,
) -> Vec<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let Some(adjacency) = &index.patch_adjacency else {
        // No propagation structure: degrade to plain aligner behaviour.
        let aligner = QueryAligner::new(q0, AlignerConfig::clip_only());
        let examples: Vec<&[f32]> = example_patches
            .iter()
            .map(|&p| index.patch_vector(p))
            .collect();
        return aligner.align(&examples, example_labels);
    };

    let labeled: Vec<(u32, f32)> = example_patches
        .iter()
        .zip(example_labels.iter())
        .map(|(&p, &y)| (p, y as u8 as f32))
        .collect();
    let yhat = propagate_labels(adjacency, &labeled);

    // Pseudo-labeled fit set: the true labels, the strongest propagated
    // positives, and a random background sample as negatives.
    let mut is_labeled = vec![false; index.n_patches()];
    for &(p, _) in &labeled {
        is_labeled[p as usize] = true;
    }
    let max_unlabeled = yhat
        .iter()
        .enumerate()
        .filter(|(p, _)| !is_labeled[*p])
        .map(|(_, &v)| v)
        .fold(0.0f32, f32::max);
    let threshold = 0.5 * max_unlabeled;

    let mut ranked: Vec<(u32, f32)> = yhat
        .iter()
        .enumerate()
        .filter(|(p, &v)| !is_labeled[*p] && max_unlabeled > 0.0 && v >= threshold)
        .map(|(p, &v)| (p as u32, v))
        .collect();
    rank_candidates(&mut ranked);
    ranked.truncate(PROP_FIT_SAMPLE / 2);

    let mut rng = StdRng::seed_from_u64(0x9e0b ^ round);
    let mut sample_patches: Vec<u32> = example_patches.to_vec();
    let mut sample_labels: Vec<bool> = example_labels.to_vec();
    for (p, _) in &ranked {
        sample_patches.push(*p);
        sample_labels.push(true);
    }
    let n_background = (PROP_FIT_SAMPLE / 2).min(index.n_patches());
    for _ in 0..n_background {
        let p = rng.gen_range(0..index.n_patches()) as u32;
        if !is_labeled[p as usize] {
            sample_patches.push(p);
            sample_labels.push(yhat[p as usize] >= threshold && max_unlabeled > 0.0);
        }
    }

    let examples: Vec<&[f32]> = sample_patches
        .iter()
        .map(|&p| index.patch_vector(p))
        .collect();
    QueryAligner::new(q0, AlignerConfig::clip_only()).align(&examples, &sample_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{PreprocessConfig, Preprocessor};
    use crate::user::SimulatedUser;
    use seesaw_dataset::DatasetSpec;

    fn setup() -> (SyntheticDataset, Arc<DatasetIndex>) {
        let ds = DatasetSpec::coco_like(0.001)
            .with_max_queries(10)
            .generate(21);
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        (ds, idx)
    }

    #[test]
    fn batches_never_repeat_images() {
        let (ds, idx) = setup();
        let concept = ds.queries()[0].concept;
        for cfg in [
            MethodConfig::zero_shot(),
            MethodConfig::seesaw(),
            MethodConfig::rocchio(),
            MethodConfig::seesaw_few_shot(),
            MethodConfig::ens(30),
        ] {
            let mut session = Session::start(&idx, &ds, concept, cfg);
            let user = SimulatedUser::new(&ds);
            let mut all: Vec<ImageId> = Vec::new();
            for _ in 0..10 {
                let batch = session.next_batch(2);
                for img in batch {
                    assert!(!all.contains(&img), "image {img} repeated");
                    all.push(img);
                    session.feedback(user.annotate(img, concept));
                }
            }
            assert_eq!(all.len(), 20);
        }
    }

    #[test]
    fn zero_shot_query_never_changes() {
        let (ds, idx) = setup();
        let concept = ds.queries()[0].concept;
        let mut s = Session::start(&idx, &ds, concept, MethodConfig::zero_shot());
        let q_before = s.current_query().to_vec();
        let user = SimulatedUser::new(&ds);
        for _ in 0..5 {
            let batch = s.next_batch(1);
            for img in batch {
                s.feedback(user.annotate(img, concept));
            }
        }
        assert_eq!(s.current_query(), q_before.as_slice());
    }

    #[test]
    fn seesaw_query_moves_after_feedback() {
        let (ds, idx) = setup();
        let concept = ds.queries()[0].concept;
        let mut s = Session::start(&idx, &ds, concept, MethodConfig::seesaw());
        let q_before = s.current_query().to_vec();
        let user = SimulatedUser::new(&ds);
        let batch = s.next_batch(3);
        for img in batch {
            s.feedback(user.annotate(img, concept));
        }
        let moved = seesaw_linalg::dot(&q_before, s.current_query());
        assert!(moved < 0.99999, "query should move, cosine {moved}");
        assert!((seesaw_linalg::l2_norm(s.current_query()) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn lazy_realignment_matches_realigning_after_every_label() {
        let (ds, idx) = setup();
        let concept = ds.queries()[0].concept;
        let user = SimulatedUser::new(&ds);
        let bits = |q: &[f32]| q.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (name, cfg, anchored) in [
            ("seesaw", MethodConfig::seesaw(), true),
            ("clip_only", MethodConfig::seesaw_clip_only(), true),
            ("few_shot", MethodConfig::seesaw_few_shot(), false),
            ("prop", MethodConfig::seesaw_prop(), true),
        ] {
            for b in [1usize, 3, 10] {
                let mut lazy = Session::start(&idx, &ds, concept, cfg.clone());
                // Reading the query after every label forces a solve
                // per label: the eager order.
                let mut eager = Session::start(&idx, &ds, concept, cfg.clone());
                let mut labels = 0;
                for round in 0..4 {
                    let solves = lazy.n_solves();
                    let shown = lazy.next_batch(b);
                    assert_eq!(shown, eager.next_batch(b), "{name} b={b} round {round}");
                    assert_eq!(
                        bits(lazy.current_query()),
                        bits(eager.current_query()),
                        "{name} b={b} round {round}: queries differ"
                    );
                    let added = lazy.n_solves() - solves;
                    if anchored && round > 0 {
                        // A whole batch of labels costs one solve.
                        assert_eq!(added, 1, "{name} b={b} round {round}");
                    } else {
                        assert!(added <= 1, "{name} b={b} round {round}: {added} solves");
                    }
                    let solves = lazy.n_solves();
                    for image in shown {
                        let fb = user.annotate(image, concept);
                        assert!(lazy.try_feedback(fb.clone()));
                        assert!(eager.try_feedback(fb));
                        eager.current_query();
                        labels += 1;
                    }
                    assert_eq!(lazy.n_solves(), solves, "{name}: feedback must not solve");
                }
                if anchored {
                    assert_eq!(eager.n_solves(), labels, "{name} b={b}");
                }
            }
        }
    }

    #[test]
    fn fixed_vector_method_uses_it() {
        let (ds, idx) = setup();
        let concept = ds.queries()[0].concept;
        // Another concept's text vector: far from this concept's `q₀`.
        let v = ds.model.embed_text(ds.queries()[1].concept);
        let s = Session::start(&idx, &ds, concept, MethodConfig::fixed(v.clone()));
        let cos = seesaw_linalg::cosine(s.current_query(), &v);
        assert!(cos > 0.9999);
    }

    #[test]
    fn ens_uses_zero_shot_until_first_positive() {
        let (ds, idx) = setup();
        let concept = ds.queries()[0].concept;
        let mut ens = Session::start(&idx, &ds, concept, MethodConfig::ens(60));
        let mut zs = Session::start(&idx, &ds, concept, MethodConfig::zero_shot());
        let user = SimulatedUser::new(&ds);
        // Until the first positive, both produce the same ranking.
        for _ in 0..20 {
            let a = ens.next_batch(1);
            let b = zs.next_batch(1);
            assert_eq!(a, b, "warm-up must follow zero-shot");
            let fb = user.annotate(a[0], concept);
            let relevant = fb.relevant;
            ens.feedback(fb.clone());
            zs.feedback(fb);
            if relevant {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "not shown")]
    fn feedback_for_unshown_image_panics() {
        let (ds, idx) = setup();
        let concept = ds.queries()[0].concept;
        let mut s = Session::start(&idx, &ds, concept, MethodConfig::zero_shot());
        s.feedback(Feedback {
            image: 0,
            relevant: false,
            boxes: vec![],
        });
    }

    #[test]
    fn exhausting_the_database_returns_short_batches() {
        let ds = DatasetSpec::coco_like(0.0).with_max_queries(5).generate(5); // 60 images
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        let concept = ds.queries()[0].concept;
        let mut s = Session::start(&idx, &ds, concept, MethodConfig::zero_shot());
        let got = s.next_batch(100);
        assert_eq!(got.len(), 60);
        assert!(s.next_batch(5).is_empty());
        // A hostile size is clamped to the unseen remainder, not
        // allocated up front.
        let mut s = Session::start(&idx, &ds, concept, MethodConfig::zero_shot());
        assert_eq!(s.next_batch(usize::MAX).len(), 60);
        assert!(s.next_batch(usize::MAX).is_empty());
    }

    #[test]
    fn zero_sized_batch_shows_nothing() {
        let (ds, idx) = setup();
        let concept = ds.queries()[0].concept;
        for cfg in [MethodConfig::zero_shot(), MethodConfig::seesaw()] {
            let mut s = Session::start(&idx, &ds, concept, cfg);
            assert!(s.next_batch(0).is_empty());
            assert_eq!(s.n_seen(), 0);
            assert_eq!(s.next_batch(5).len(), 5);
            assert_eq!(s.n_seen(), 5);
        }
    }

    #[test]
    fn prop_variant_produces_unit_queries() {
        let (ds, idx) = setup();
        let concept = ds.queries()[0].concept;
        let mut s = Session::start(&idx, &ds, concept, MethodConfig::seesaw_prop());
        let user = SimulatedUser::new(&ds);
        for _ in 0..3 {
            let batch = s.next_batch(1);
            for img in batch {
                s.feedback(user.annotate(img, concept));
            }
        }
        assert!((seesaw_linalg::l2_norm(s.current_query()) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn candidate_ranking_is_deterministic_with_injected_nan() {
        // Regression for the historical `partial_cmp(..).unwrap_or(Equal)`
        // comparator in `prop_align`'s candidate ranking: a NaN score
        // compared `Equal` to *everything*, so the unstable sort's
        // output depended on the input permutation (e.g. inserting
        // `2.0` after `[1.0, NaN]` stopped at the NaN and left `2.0`
        // ranked below `1.0`). Under the canonical total order every
        // permutation must produce the one canonical ranking, with the
        // NaN pinned to a fixed slot (above +inf) instead of floating.
        let base = [(0u32, 1.0f32), (1, f32::NAN), (2, 2.0), (3, 0.5)];
        let canonical_ids = vec![1u32, 2, 0, 3];

        // Heap's algorithm: all 24 permutations of the four candidates.
        fn permutations(items: &mut Vec<(u32, f32)>, k: usize, out: &mut Vec<Vec<(u32, f32)>>) {
            if k <= 1 {
                out.push(items.clone());
                return;
            }
            for i in 0..k {
                permutations(items, k - 1, out);
                if k.is_multiple_of(2) {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
        let mut all = Vec::new();
        permutations(&mut base.to_vec(), base.len(), &mut all);
        assert_eq!(all.len(), 24);

        for mut perm in all {
            let start = perm.clone();
            rank_candidates(&mut perm);
            let ids: Vec<u32> = perm.iter().map(|&(p, _)| p).collect();
            assert_eq!(ids, canonical_ids, "permutation {start:?} mis-ranked");
            assert!(perm[0].1.is_nan(), "NaN must stay attached to its patch");
        }
    }
}
