//! The preprocessed dataset index: everything Figure 3's top row
//! produces, ready for interactive querying.

use seesaw_dataset::{BBox, ImageId};
use seesaw_knn::KnnGraph;
use seesaw_linalg::{CsrMatrix, DenseMatrix};
use seesaw_vecstore::AnyStore;

/// Where a patch vector came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PatchMeta {
    /// Owning image.
    pub image: ImageId,
    /// Patch region within the image.
    pub bbox: BBox,
    /// Whether this is the coarse (full-image) patch.
    pub is_coarse: bool,
}

/// The output of preprocessing: patch embeddings, their metadata, the
/// approximate vector store, and the database-alignment artifacts.
#[derive(Clone, Debug)]
pub struct DatasetIndex {
    /// Embedding dimension.
    pub dim: usize,
    /// All patch embeddings (`n_patches × dim`), unit rows.
    pub embeddings: DenseMatrix,
    /// Metadata parallel to `embeddings` rows.
    pub patches: Vec<PatchMeta>,
    /// Per image: `[start, end)` range of its patch ids (patches of one
    /// image are contiguous).
    pub image_patch_ranges: Vec<(u32, u32)>,
    /// Per image: the patch id of its coarse tile.
    pub coarse_patches: Vec<u32>,
    /// MIPS store over all patches; the backend (exact, RP forest, or
    /// IVF) is selected by the `PreprocessConfig`'s `StoreConfig`.
    pub store: AnyStore,
    /// The precomputed `M_D` (present when DB alignment was requested).
    pub m_d: Option<DenseMatrix>,
    /// Symmetrized weighted adjacency over *all patches* (present when
    /// the propagation variant was requested; this is the structure the
    /// `prop.` rows of Table 6 must sweep every round).
    pub patch_adjacency: Option<CsrMatrix>,
    /// Coarse-level kNN graph (present when ENS support was requested;
    /// the paper evaluates ENS on coarse embeddings only).
    pub coarse_graph: Option<KnnGraph>,
    /// Whether the index contains multiscale patches (false = coarse
    /// only).
    pub multiscale: bool,
}

impl DatasetIndex {
    /// Number of indexed images.
    pub fn n_images(&self) -> usize {
        self.image_patch_ranges.len()
    }

    /// Number of patch vectors (the "vectors" column of Table 6).
    pub fn n_patches(&self) -> usize {
        self.patches.len()
    }

    /// Borrow the embedding of patch `id`.
    pub fn patch_vector(&self, id: u32) -> &[f32] {
        self.embeddings.row(id as usize)
    }

    /// Borrow the coarse embedding of `image`.
    pub fn coarse_vector(&self, image: ImageId) -> &[f32] {
        self.patch_vector(self.coarse_patches[image as usize])
    }

    /// Patch ids belonging to `image`.
    pub fn patches_of(&self, image: ImageId) -> std::ops::Range<u32> {
        let (s, e) = self.image_patch_ranges[image as usize];
        s..e
    }

    /// Inner product of `query` with every coarse (full-image)
    /// embedding, in image order — the `N × d` GEMV behind the ENS
    /// raw-CLIP prior (§5.4) and the zero-shot full-ranking metrics.
    ///
    /// Runs as blocked kernel calls instead of `N` separate row loops:
    /// a coarse-only index is one [`seesaw_linalg::gemv1_into`] over
    /// the contiguous embedding block; a multiscale index gathers
    /// coarse rows in blocks and scores each block while it is cache
    /// resident. The kernels dispatch to the machine's best SIMD tier
    /// (`SEESAW_SIMD` to pin), and every tier is bitwise identical, so
    /// scores are bit-identical to per-image
    /// `dot(query, coarse_vector(i))` calls on any tier.
    ///
    /// # Panics
    /// Panics when `query.len() != self.dim`.
    pub fn coarse_scores(&self, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let n = self.n_images();
        let mut out = vec![0.0f32; n];
        if self.n_patches() == n {
            // One patch per image ⇒ coarse rows are the whole block.
            seesaw_linalg::gemv1_into(self.embeddings.as_slice(), self.dim, query, &mut out);
            return out;
        }
        const GATHER_BLOCK: usize = 32;
        let mut scratch = vec![0.0f32; GATHER_BLOCK.min(n.max(1)) * self.dim];
        for (block_i, ids) in self.coarse_patches.chunks(GATHER_BLOCK).enumerate() {
            for (j, &p) in ids.iter().enumerate() {
                scratch[j * self.dim..(j + 1) * self.dim].copy_from_slice(self.patch_vector(p));
            }
            seesaw_linalg::gemv1_into(
                &scratch[..ids.len() * self.dim],
                self.dim,
                query,
                &mut out[block_i * GATHER_BLOCK..block_i * GATHER_BLOCK + ids.len()],
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::preprocess::{PreprocessConfig, Preprocessor};
    use seesaw_dataset::DatasetSpec;
    use seesaw_linalg::random_unit_vector;

    #[test]
    fn coarse_scores_match_per_image_dot_bitwise() {
        let ds = DatasetSpec::coco_like(0.001)
            .with_max_queries(5)
            .generate(31);
        for coarse_only in [true, false] {
            let mut cfg = PreprocessConfig::fast();
            cfg.multiscale = !coarse_only;
            let idx = Preprocessor::new(cfg).build(&ds);
            let q = random_unit_vector(
                &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3),
                idx.dim,
            );
            let scores = idx.coarse_scores(&q);
            assert_eq!(scores.len(), idx.n_images());
            for (img, &s) in scores.iter().enumerate() {
                let reference = seesaw_linalg::dot(&q, idx.coarse_vector(img as u32));
                assert_eq!(
                    s.to_bits(),
                    reference.to_bits(),
                    "image {img}, coarse_only={coarse_only}"
                );
            }
        }
    }
}
