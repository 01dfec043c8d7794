//! The one-time preprocessing pass (paper §2.4).
//!
//! "Pre-processing in SeeSaw consists of converting raw image data into
//! semantic feature vectors using a pre-trained visual embedding" —
//! here, tiling every image (§4.3), embedding each tile, building the
//! Annoy-style store, the kNN graph, and the `M_D` matrix. The work is
//! data parallel over images, exactly as the paper notes, and we
//! parallelize it with scoped threads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seesaw_aligner::{compute_db_matrix, DbMatrixConfig};
use seesaw_dataset::SyntheticDataset;
use seesaw_knn::{gaussian_adjacency, KnnGraph, NnDescentConfig, SigmaRule};
use seesaw_linalg::DenseMatrix;
use seesaw_vecstore::{RpForestConfig, StoreConfig};

use crate::index::{DatasetIndex, PatchMeta};
use crate::tiling::{tile_boxes, tile_content, CLIP_INPUT_PX};

/// Preprocessing configuration.
#[derive(Clone, Debug)]
pub struct PreprocessConfig {
    /// Multiscale tiling on (§4.3) or coarse-only embeddings.
    pub multiscale: bool,
    /// Minimum fine-tile side in pixels (CLIP's 224 by default).
    pub min_patch_px: u32,
    /// Vector-store backend and build parameters (exact, RP forest, or
    /// IVF — each optionally sharded).
    pub store: StoreConfig,
    /// kNN degree for the DB-alignment graph (paper: 10).
    pub knn_k: usize,
    /// Gaussian bandwidth rule for graph weights.
    pub sigma: SigmaRule,
    /// Compute `M_D` (needed by SeeSaw's DB alignment).
    pub build_db_matrix: bool,
    /// Compute `M_D` from a subsample of this many vectors instead of
    /// all of them (the §4.2 optimization: "using a sample of a few
    /// thousand vectors … produces a very similar M_D"). `None` uses
    /// every vector, as in the paper's experiments.
    pub db_matrix_sample: Option<usize>,
    /// Keep the full patch adjacency (needed by the `prop.` variant).
    pub build_propagation: bool,
    /// Build the coarse kNN graph (needed by ENS; paper uses k = 20).
    pub build_coarse_graph: bool,
    /// ENS graph degree.
    pub ens_knn_k: usize,
    /// NN-descent settings shared by the graph builds.
    pub nn_descent: NnDescentConfig,
    /// Worker threads for the embedding pass (0 = all cores).
    pub threads: usize,
    /// Seed for embedding noise and index construction.
    pub seed: u64,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        Self {
            multiscale: true,
            min_patch_px: CLIP_INPUT_PX,
            store: StoreConfig::default(),
            knn_k: 10,
            sigma: SigmaRule::SelfTuning(1.0),
            build_db_matrix: true,
            db_matrix_sample: None,
            build_propagation: true,
            build_coarse_graph: true,
            ens_knn_k: 20,
            nn_descent: NnDescentConfig::default(),
            threads: 0,
            seed: 0x9e3,
        }
    }
}

impl PreprocessConfig {
    /// Everything on, sized for tests and examples (smaller forest).
    pub fn fast() -> Self {
        Self {
            store: StoreConfig::forest(RpForestConfig {
                n_trees: 24,
                leaf_size: 16,
                search_k: 8192,
                ..RpForestConfig::default()
            }),
            knn_k: 6,
            ens_knn_k: 8,
            ..Self::default()
        }
    }

    /// Swap the vector-store backend (builder style).
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = store;
        self
    }

    /// Coarse-only variant of any configuration (the "−" rows of
    /// Table 6 and all of Table 3).
    pub fn coarse_only(mut self) -> Self {
        self.multiscale = false;
        self
    }
}

/// Runs the preprocessing pass.
#[derive(Clone, Debug, Default)]
pub struct Preprocessor {
    config: PreprocessConfig,
}

impl Preprocessor {
    /// Create with the given configuration.
    pub fn new(config: PreprocessConfig) -> Self {
        Self { config }
    }

    /// Run the full pass over a dataset.
    ///
    /// Returns the index behind `Arc`: it is immutable after
    /// construction and designed to be shared — across [`crate::Session`]s,
    /// across threads, and by a long-lived
    /// [`crate::service::SearchService`]. Callers that need to modify a
    /// built index (e.g. to swap the store backend) clone the inner
    /// value first: `let mut owned = (*index).clone()`.
    pub fn build(&self, dataset: &SyntheticDataset) -> std::sync::Arc<DatasetIndex> {
        let cfg = &self.config;
        let model = &dataset.model;
        let dim = model.dim();
        let n_images = dataset.images.len();

        // --- tile + embed (data parallel over images) ----------------
        // Compute per-image tile boxes first so patch ids can be laid
        // out contiguously per image.
        let mut image_patch_ranges = Vec::with_capacity(n_images);
        let mut patches: Vec<PatchMeta> = Vec::new();
        for img in &dataset.images {
            let start = patches.len() as u32;
            let boxes = if cfg.multiscale {
                tile_boxes(img.width, img.height, cfg.min_patch_px)
            } else {
                vec![img.full_box()]
            };
            for (t, b) in boxes.iter().enumerate() {
                patches.push(PatchMeta {
                    image: img.id,
                    bbox: *b,
                    is_coarse: t == 0,
                });
            }
            image_patch_ranges.push((start, patches.len() as u32));
        }
        let n_patches = patches.len();

        let mut embeddings = vec![0.0f32; n_patches * dim];
        {
            let threads = if cfg.threads == 0 {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(4)
            } else {
                cfg.threads
            };
            let chunk = n_images.div_ceil(threads.max(1)).max(1);
            // Split the output buffer into per-image slices up front so
            // worker threads write disjoint regions safely.
            let mut slices: Vec<&mut [f32]> = Vec::with_capacity(n_images);
            let mut rest: &mut [f32] = &mut embeddings;
            for &(s, e) in &image_patch_ranges {
                let len = (e - s) as usize * dim;
                let (head, tail) = rest.split_at_mut(len);
                slices.push(head);
                rest = tail;
            }
            let seed = cfg.seed;
            std::thread::scope(|scope| {
                let images = &dataset.images;
                for (t, chunk_slices) in slices.chunks_mut(chunk).enumerate() {
                    let lo = t * chunk;
                    scope.spawn(move || {
                        for (off, out) in chunk_slices.iter_mut().enumerate() {
                            let img = &images[lo + off];
                            // Deterministic per-image noise stream.
                            let mut rng = StdRng::seed_from_u64(
                                seed ^ (img.id as u64).wrapping_mul(0x9e37_79b9),
                            );
                            let boxes = if cfg.multiscale {
                                tile_boxes(img.width, img.height, cfg.min_patch_px)
                            } else {
                                vec![img.full_box()]
                            };
                            for (ti, tb) in boxes.iter().enumerate() {
                                let content = tile_content(img, tb);
                                let v = model.embed_patch(&content, &mut rng);
                                out[ti * dim..(ti + 1) * dim].copy_from_slice(&v);
                            }
                        }
                    });
                }
            });
        }

        std::sync::Arc::new(rebuild_from_embeddings(
            dim,
            embeddings,
            patches,
            image_patch_ranges,
            cfg.multiscale,
            cfg,
        ))
    }
}

/// The graph-derived preprocessing artifacts (`M_D`, the propagation
/// adjacency, the ENS coarse graph) — the config-gated tail shared by
/// a from-scratch build and a cold-start load with graphs requested.
pub(crate) struct GraphArtifacts {
    pub m_d: Option<DenseMatrix>,
    pub patch_adjacency: Option<seesaw_linalg::CsrMatrix>,
    pub coarse_graph: Option<KnnGraph>,
}

/// Build the config-requested graph artifacts over an embedding block.
/// Deterministic given `cfg`. Every artifact is optional: with all
/// three `build_*` flags off this is free, which is what lets an
/// mmapped index cold-start in milliseconds.
pub(crate) fn build_graph_artifacts(
    dim: usize,
    embeddings: &[f32],
    coarse_patches: &[u32],
    cfg: &PreprocessConfig,
) -> GraphArtifacts {
    let n_patches = embeddings.len() / dim.max(1);
    let n_images = coarse_patches.len();

    // --- patch-level graph artifacts ------------------------------
    // The propagation adjacency and the full-data M_D share one
    // NN-descent build; the subsampled M_D path builds its own
    // (small) graph instead.
    let graph_feasible = n_patches > cfg.knn_k + 2;
    let want_full_graph = graph_feasible
        && (cfg.build_propagation || (cfg.build_db_matrix && cfg.db_matrix_sample.is_none()));
    let mut m_d = None;
    let mut patch_adjacency = None;
    if want_full_graph {
        let graph = KnnGraph::nn_descent(dim, embeddings, cfg.knn_k, &cfg.nn_descent);
        let adjacency = gaussian_adjacency(&graph, cfg.sigma);
        if cfg.build_db_matrix && cfg.db_matrix_sample.is_none() {
            let lap = seesaw_knn::laplacian(&adjacency);
            let x = DenseMatrix::from_vec(n_patches, dim, embeddings.to_vec());
            let mut m = lap.xtax(&x);
            let n_edges = (adjacency.nnz() / 2).max(1);
            m.scale(1.0 / n_edges as f32);
            m.symmetrize();
            m_d = Some(m);
        }
        if cfg.build_propagation {
            patch_adjacency = Some(adjacency);
        }
    }
    if m_d.is_none() && cfg.build_db_matrix && graph_feasible {
        m_d = Some(compute_db_matrix(
            dim,
            embeddings,
            &DbMatrixConfig {
                k: cfg.knn_k,
                sigma: cfg.sigma,
                sample: cfg.db_matrix_sample,
                normalize_by_edges: true,
                nn_descent: cfg.nn_descent.clone(),
                seed: cfg.seed,
            },
        ));
    }

    // --- coarse graph for ENS -------------------------------------
    let coarse_graph = if cfg.build_coarse_graph && n_images > cfg.ens_knn_k + 2 {
        let mut coarse_data = Vec::with_capacity(n_images * dim);
        for &p in coarse_patches {
            coarse_data.extend_from_slice(&embeddings[p as usize * dim..(p as usize + 1) * dim]);
        }
        Some(KnnGraph::nn_descent(
            dim,
            &coarse_data,
            cfg.ens_knn_k,
            &cfg.nn_descent,
        ))
    } else {
        None
    };

    GraphArtifacts {
        m_d,
        patch_adjacency,
        coarse_graph,
    }
}

/// Build the store, graph artifacts, and `M_D` from an existing
/// embedding block — the tail of [`Preprocessor::build`].
/// Deterministic given `cfg`.
pub(crate) fn rebuild_from_embeddings(
    dim: usize,
    embeddings: Vec<f32>,
    patches: Vec<PatchMeta>,
    image_patch_ranges: Vec<(u32, u32)>,
    multiscale: bool,
    cfg: &PreprocessConfig,
) -> DatasetIndex {
    let n_patches = patches.len();
    let coarse_patches: Vec<u32> = image_patch_ranges.iter().map(|&(s, _)| s).collect();

    // --- vector store --------------------------------------------
    let store = cfg
        .store
        .clone()
        .reseeded(cfg.seed)
        .build(dim, embeddings.clone());

    let GraphArtifacts {
        m_d,
        patch_adjacency,
        coarse_graph,
    } = build_graph_artifacts(dim, &embeddings, &coarse_patches, cfg);

    DatasetIndex {
        dim,
        embeddings: DenseMatrix::from_vec(n_patches, dim, embeddings),
        patches,
        image_patch_ranges,
        coarse_patches,
        store,
        m_d,
        patch_adjacency,
        coarse_graph,
        multiscale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_dataset::DatasetSpec;
    use seesaw_linalg::l2_norm;

    fn small_dataset() -> SyntheticDataset {
        DatasetSpec::coco_like(0.001)
            .with_max_queries(10)
            .generate(11)
    }

    #[test]
    fn coarse_index_has_one_patch_per_image() {
        let ds = small_dataset();
        let idx = Preprocessor::new(PreprocessConfig::fast().coarse_only()).build(&ds);
        assert_eq!(idx.n_patches(), ds.n_images());
        assert!(!idx.multiscale);
        for img in 0..ds.n_images() as u32 {
            assert_eq!(idx.patches_of(img).len(), 1);
            assert!(idx.patches[idx.coarse_patches[img as usize] as usize].is_coarse);
        }
    }

    #[test]
    fn multiscale_index_has_more_patches() {
        let ds = small_dataset();
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        assert!(
            idx.n_patches() > ds.n_images() * 5,
            "expected ~13 patches/image, got {} for {} images",
            idx.n_patches(),
            ds.n_images()
        );
        assert!(idx.multiscale);
    }

    #[test]
    fn embeddings_are_unit_norm_and_deterministic() {
        let ds = small_dataset();
        let pre = Preprocessor::new(PreprocessConfig::fast());
        let a = pre.build(&ds);
        let b = pre.build(&ds);
        assert_eq!(
            a.embeddings, b.embeddings,
            "preprocessing must be deterministic"
        );
        for p in 0..a.n_patches().min(50) {
            let norm = l2_norm(a.embeddings.row(p));
            assert!((norm - 1.0).abs() < 1e-3, "patch {p} norm {norm}");
        }
    }

    #[test]
    fn artifacts_respect_flags() {
        let ds = small_dataset();
        let mut cfg = PreprocessConfig::fast();
        cfg.build_db_matrix = false;
        cfg.build_propagation = false;
        cfg.build_coarse_graph = false;
        let idx = Preprocessor::new(cfg).build(&ds);
        assert!(idx.m_d.is_none());
        assert!(idx.patch_adjacency.is_none());
        assert!(idx.coarse_graph.is_none());

        let full = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        assert!(full.m_d.is_some());
        assert!(full.patch_adjacency.is_some());
        assert!(full.coarse_graph.is_some());
        assert_eq!(full.m_d.as_ref().unwrap().rows(), full.dim);
    }

    #[test]
    fn image_score_is_max_over_patches() {
        let ds = small_dataset();
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        let q = idx.patch_vector(3).to_vec();
        let img = idx.patches[3].image;
        let direct = idx
            .patches_of(img)
            .map(|p| seesaw_linalg::dot(&q, idx.patch_vector(p)))
            .fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(idx.image_score(img, &q), direct);
        // Self-similarity: patch 3 scores 1 against itself.
        assert!((idx.image_score(img, &q) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn objectnet_like_is_coarse_even_with_multiscale_on() {
        // 224×224 images produce no fine tiles.
        let ds = DatasetSpec::objectnet_like(0.002).generate(3);
        let idx = Preprocessor::new(PreprocessConfig::fast()).build(&ds);
        assert_eq!(idx.n_patches(), ds.n_images());
    }
}
