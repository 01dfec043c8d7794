//! The embedding model itself: text tower + image tower over a shared
//! unit sphere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seesaw_linalg::{
    add_scaled, normalize, random_unit_vector, rotate_toward, standard_normal, DenseMatrix,
};

use crate::{ConceptId, PatchContent};

/// Per-concept difficulty knobs, chosen by the dataset presets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConceptSpec {
    /// Rotation (radians) of the text embedding away from the concept's
    /// latent direction — the *alignment deficit* of Fig. 2a. `0` means a
    /// perfectly aligned query; `≈ π/2` means the text query points at
    /// the confuser concept instead.
    pub deficit_angle: f32,
    /// Number of image-embedding modes — `1` for tightly clustered
    /// concepts; more modes create the *locality deficit* of Fig. 2b.
    pub modes: u32,
    /// Angular spread (radians) of the modes around the latent direction.
    pub mode_spread: f32,
}

impl Default for ConceptSpec {
    fn default() -> Self {
        Self {
            deficit_angle: 0.2,
            modes: 1,
            mode_spread: 0.0,
        }
    }
}

/// Model-wide configuration.
#[derive(Clone, Debug)]
pub struct EmbedConfig {
    /// Embedding dimension (CLIP uses 512; smaller is fine for tests).
    pub dim: usize,
    /// Per-concept difficulty specs; the vocabulary size is their count.
    pub concepts: Vec<ConceptSpec>,
    /// Number of background *contexts* (scene types).
    pub contexts: usize,
    /// Isotropic per-patch noise magnitude (relative to the unit signal).
    pub noise_sigma: f32,
    /// Per-instance jitter angle (radians): every object instance is
    /// rotated away from its mode direction by this fixed angle in a
    /// deterministic instance-specific direction. Keeps concept
    /// locality high (ideal vectors still work) while making any single
    /// instance an imperfect query.
    pub instance_jitter: f32,
    /// Weight multiplier of the background direction inside a patch.
    pub clutter_strength: f32,
    /// Salience exponent: object weight = share^salience. Values < 1
    /// mimic CLIP's tendency to over-represent salient objects relative
    /// to their pixel area.
    pub salience: f32,
    /// RNG seed for the latent directions.
    pub seed: u64,
}

/// The deterministic synthetic visual-semantic embedding model.
///
/// See the crate docs for the generative story. All outputs are unit
/// vectors of dimension [`EmbeddingModel::dim`].
#[derive(Clone, Debug)]
pub struct EmbeddingModel {
    dim: usize,
    specs: Vec<ConceptSpec>,
    /// Latent concept directions, one row per concept.
    concept_dirs: DenseMatrix,
    /// Flattened mode directions with per-concept offsets.
    mode_dirs: DenseMatrix,
    mode_offsets: Vec<u32>,
    /// The confuser concept each text query drifts toward.
    confusers: Vec<ConceptId>,
    /// Background context directions.
    context_dirs: DenseMatrix,
    noise_sigma: f32,
    instance_jitter: f32,
    clutter_strength: f32,
    salience: f32,
    seed: u64,
}

impl EmbeddingModel {
    /// Build the latent geometry from a configuration.
    ///
    /// # Panics
    /// Panics when the vocabulary is empty or `dim == 0`.
    pub fn build(cfg: &EmbedConfig) -> Self {
        assert!(!cfg.concepts.is_empty(), "vocabulary must be non-empty");
        assert!(cfg.dim > 0, "embedding dimension must be positive");
        let n = cfg.concepts.len();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let mut concept_rows = Vec::with_capacity(n * cfg.dim);
        for _ in 0..n {
            concept_rows.extend_from_slice(&random_unit_vector(&mut rng, cfg.dim));
        }
        let concept_dirs = DenseMatrix::from_vec(n, cfg.dim, concept_rows);

        // Confuser assignment: a deterministic "nearby in vocabulary
        // order" choice, never the concept itself. Using a random other
        // concept makes the misaligned query retrieve real distractors.
        let confusers: Vec<ConceptId> = (0..n)
            .map(|c| {
                if n == 1 {
                    0
                } else {
                    let mut pick = rng.gen_range(0..n - 1) as u32;
                    if pick >= c as u32 {
                        pick += 1;
                    }
                    pick
                }
            })
            .collect();

        // Locality modes: mode 0 is the latent direction itself; extra
        // modes are spread around it by `mode_spread` radians.
        let mut mode_rows: Vec<f32> = Vec::new();
        let mut mode_offsets = Vec::with_capacity(n + 1);
        mode_offsets.push(0u32);
        for (c, spec) in cfg.concepts.iter().enumerate() {
            let base = concept_dirs.row(c);
            let modes = spec.modes.max(1);
            for m in 0..modes {
                if m == 0 && spec.mode_spread == 0.0 {
                    mode_rows.extend_from_slice(base);
                } else {
                    let away = random_unit_vector(&mut rng, cfg.dim);
                    let dir = rotate_toward(base, &away, spec.mode_spread);
                    mode_rows.extend_from_slice(&dir);
                }
            }
            mode_offsets.push(mode_offsets.last().unwrap() + modes);
        }
        let total_modes = *mode_offsets.last().unwrap() as usize;
        let mode_dirs = DenseMatrix::from_vec(total_modes, cfg.dim, mode_rows);

        let mut context_rows = Vec::with_capacity(cfg.contexts.max(1) * cfg.dim);
        for _ in 0..cfg.contexts.max(1) {
            context_rows.extend_from_slice(&random_unit_vector(&mut rng, cfg.dim));
        }
        let context_dirs = DenseMatrix::from_vec(cfg.contexts.max(1), cfg.dim, context_rows);

        Self {
            dim: cfg.dim,
            specs: cfg.concepts.clone(),
            concept_dirs,
            mode_dirs,
            mode_offsets,
            confusers,
            context_dirs,
            noise_sigma: cfg.noise_sigma,
            instance_jitter: cfg.instance_jitter,
            clutter_strength: cfg.clutter_strength,
            salience: cfg.salience,
            seed: cfg.seed,
        }
    }

    /// Embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    #[inline]
    pub fn n_concepts(&self) -> usize {
        self.specs.len()
    }

    /// Number of background contexts.
    #[inline]
    pub fn n_contexts(&self) -> usize {
        self.context_dirs.rows()
    }

    /// Number of locality modes of `concept`.
    #[inline]
    pub fn n_modes(&self, concept: ConceptId) -> u32 {
        self.mode_offsets[concept as usize + 1] - self.mode_offsets[concept as usize]
    }

    /// The difficulty spec of `concept`.
    #[inline]
    pub fn spec(&self, concept: ConceptId) -> &ConceptSpec {
        &self.specs[concept as usize]
    }

    /// The concept a misaligned text query for `concept` drifts toward.
    #[inline]
    pub fn confuser(&self, concept: ConceptId) -> ConceptId {
        self.confusers[concept as usize]
    }

    /// Direction of a specific locality mode.
    #[inline]
    pub fn mode_direction(&self, concept: ConceptId, mode: u32) -> &[f32] {
        let off = self.mode_offsets[concept as usize];
        let n = self.n_modes(concept);
        self.mode_dirs.row((off + mode.min(n - 1)) as usize)
    }

    /// **Text tower**: embed the query string for `concept` (the paper's
    /// `CLIP.embed_string`, Listing 1 line 2). Deterministic; the
    /// alignment deficit rotates it toward the confuser concept.
    pub fn embed_text(&self, concept: ConceptId) -> Vec<f32> {
        let base = self.concept_dirs.row(concept as usize);
        let confuser = self.concept_dirs.row(self.confuser(concept) as usize);
        let spec = &self.specs[concept as usize];
        rotate_toward(base, confuser, spec.deficit_angle)
    }

    /// The deterministic embedding direction of one object *instance*:
    /// its mode direction rotated by the model's instance jitter in an
    /// instance-specific direction.
    pub fn instance_direction(&self, concept: ConceptId, mode: u32, instance: u32) -> Vec<f32> {
        let base = self.mode_direction(concept, mode);
        if self.instance_jitter <= 0.0 {
            return base.to_vec();
        }
        let mut h = self.seed ^ 0x51ce_5eed;
        for v in [concept as u64, mode as u64, instance as u64] {
            h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = h.rotate_left(27).wrapping_mul(0x1000_0000_01b3);
        }
        let mut jrng = StdRng::seed_from_u64(h);
        let away = random_unit_vector(&mut jrng, self.dim);
        rotate_toward(base, &away, self.instance_jitter)
    }

    /// **Image tower**: embed one patch. The caller provides the RNG so
    /// preprocessing can use a per-image seeded stream and stay
    /// deterministic and parallelizable.
    pub fn embed_patch<R: Rng + ?Sized>(&self, content: &PatchContent, rng: &mut R) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        for obj in &content.objects {
            let weight = obj.share.clamp(0.0, 1.0).powf(self.salience);
            if weight <= 0.0 {
                continue;
            }
            let dir = self.instance_direction(obj.concept, obj.mode, obj.instance);
            add_scaled(&mut acc, weight, &dir);
        }
        let clutter_w = content.clutter.clamp(0.0, 1.0).powf(self.salience) * self.clutter_strength;
        if clutter_w > 0.0 {
            let ctx = self
                .context_dirs
                .row(content.context as usize % self.context_dirs.rows());
            add_scaled(&mut acc, clutter_w, ctx);
        }
        if self.noise_sigma > 0.0 {
            // Isotropic Gaussian noise with expected norm ≈ noise_sigma.
            let per_axis = self.noise_sigma / (self.dim as f32).sqrt();
            for a in acc.iter_mut() {
                *a += per_axis * standard_normal(rng);
            }
        }
        normalize(&mut acc);
        if acc.iter().all(|&v| v == 0.0) {
            // Pathological empty content with zero noise: return the
            // context direction so the output is still a unit vector.
            return self
                .context_dirs
                .row(content.context as usize % self.context_dirs.rows())
                .to_vec();
        }
        acc
    }
}

#[cfg(test)]
impl EmbeddingModel {
    /// Latent (ideal) direction of a concept — what Fig. 4 calls the
    /// neighbourhood of the *ideal query vector*. Not available to search
    /// methods.
    pub fn concept_direction(&self, concept: ConceptId) -> &[f32] {
        self.concept_dirs.row(concept as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectPresence;
    use seesaw_linalg::{cosine, dot, l2_norm};

    fn model_with(specs: Vec<ConceptSpec>) -> EmbeddingModel {
        EmbeddingModel::build(&EmbedConfig {
            dim: 64,
            concepts: specs,
            contexts: 3,
            noise_sigma: 0.1,
            instance_jitter: 0.0,
            clutter_strength: 1.0,
            salience: 0.5,
            seed: 9,
        })
    }

    fn patch(concept: ConceptId, share: f32) -> PatchContent {
        PatchContent {
            objects: vec![ObjectPresence {
                concept,
                mode: 0,
                instance: 0,
                share,
            }],
            context: 0,
            clutter: 1.0 - share,
        }
    }

    #[test]
    fn text_embedding_is_unit_and_deterministic() {
        let m = model_with(vec![ConceptSpec::default(); 5]);
        let a = m.embed_text(2);
        let b = m.embed_text(2);
        assert_eq!(a, b);
        assert!((l2_norm(&a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_deficit_text_equals_concept_direction() {
        let m = model_with(vec![
            ConceptSpec {
                deficit_angle: 0.0,
                modes: 1,
                mode_spread: 0.0
            };
            3
        ]);
        let t = m.embed_text(1);
        assert!(cosine(&t, m.concept_direction(1)) > 0.9999);
    }

    #[test]
    fn deficit_angle_is_realized() {
        for angle in [0.3f32, 0.8, 1.2] {
            let m = model_with(vec![
                ConceptSpec {
                    deficit_angle: angle,
                    modes: 1,
                    mode_spread: 0.0
                };
                6
            ]);
            let t = m.embed_text(0);
            let got = dot(&t, m.concept_direction(0)).clamp(-1.0, 1.0).acos();
            assert!((got - angle).abs() < 0.02, "wanted {angle} got {got}");
        }
    }

    #[test]
    fn misaligned_text_points_toward_confuser() {
        let m = model_with(vec![
            ConceptSpec {
                deficit_angle: 1.4,
                modes: 1,
                mode_spread: 0.0
            };
            8
        ]);
        let t = m.embed_text(3);
        let confuser = m.confuser(3);
        assert_ne!(confuser, 3);
        let cos_self = cosine(&t, m.concept_direction(3));
        let cos_conf = cosine(&t, m.concept_direction(confuser));
        assert!(
            cos_conf > cos_self,
            "query should align more with confuser ({cos_conf} vs {cos_self})"
        );
    }

    #[test]
    fn patch_embeddings_are_unit_norm() {
        let m = model_with(vec![ConceptSpec::default(); 4]);
        let mut rng = StdRng::seed_from_u64(5);
        for share in [0.0f32, 0.2, 1.0] {
            let v = m.embed_patch(&patch(0, share), &mut rng);
            assert!((l2_norm(&v) - 1.0).abs() < 1e-4, "share {share}");
        }
    }

    #[test]
    fn dominant_object_pulls_embedding_toward_concept() {
        let m = model_with(vec![ConceptSpec::default(); 4]);
        let mut rng = StdRng::seed_from_u64(5);
        let big = m.embed_patch(&patch(1, 0.9), &mut rng);
        let small = m.embed_patch(&patch(1, 0.02), &mut rng);
        let cos_big = cosine(&big, m.concept_direction(1));
        let cos_small = cosine(&small, m.concept_direction(1));
        assert!(
            cos_big > cos_small + 0.2,
            "big {cos_big} should beat small {cos_small}"
        );
    }

    #[test]
    fn small_object_dilution_motivates_multiscale() {
        // A tiny object in a full image (coarse embedding) scores much
        // worse against the true concept than the same object filling a
        // tile — this is the §4.3 motivation.
        let m = model_with(vec![ConceptSpec::default(); 4]);
        let mut rng = StdRng::seed_from_u64(6);
        let coarse = m.embed_patch(&patch(2, 0.01), &mut rng);
        let tile = m.embed_patch(&patch(2, 0.6), &mut rng);
        let q = m.embed_text(2);
        assert!(dot(&q, &tile) > dot(&q, &coarse) + 0.1);
    }

    #[test]
    fn locality_modes_spread_the_cluster() {
        let tight = model_with(vec![
            ConceptSpec {
                deficit_angle: 0.1,
                modes: 1,
                mode_spread: 0.0
            };
            3
        ]);
        let diffuse = model_with(vec![
            ConceptSpec {
                deficit_angle: 0.1,
                modes: 3,
                mode_spread: 1.2
            };
            3
        ]);
        assert_eq!(tight.n_modes(0), 1);
        assert_eq!(diffuse.n_modes(0), 3);
        // Modes of the diffuse concept disagree with each other.
        let m0 = diffuse.mode_direction(0, 0);
        let m2 = diffuse.mode_direction(0, 2);
        assert!(cosine(m0, m2) < 0.9);
    }

    #[test]
    fn contexts_are_distinct_directions() {
        let m = model_with(vec![ConceptSpec::default(); 2]);
        let mut rng = StdRng::seed_from_u64(1);
        let a = m.embed_patch(&PatchContent::background(0), &mut rng);
        let b = m.embed_patch(&PatchContent::background(1), &mut rng);
        assert!(cosine(&a, &b) < 0.5, "contexts should differ");
    }

    #[test]
    fn empty_content_zero_noise_still_unit() {
        let m = EmbeddingModel::build(&EmbedConfig {
            dim: 16,
            concepts: vec![ConceptSpec::default()],
            contexts: 1,
            noise_sigma: 0.0,
            instance_jitter: 0.0,
            clutter_strength: 0.0,
            seed: 3,
            salience: 0.5,
        });
        let mut rng = StdRng::seed_from_u64(0);
        let v = m.embed_patch(
            &PatchContent {
                objects: vec![],
                context: 0,
                clutter: 0.0,
            },
            &mut rng,
        );
        assert!((l2_norm(&v) - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_vocabulary_panics() {
        let _ = EmbeddingModel::build(&EmbedConfig {
            dim: 8,
            concepts: vec![],
            contexts: 1,
            noise_sigma: 0.0,
            instance_jitter: 0.0,
            clutter_strength: 1.0,
            salience: 1.0,
            seed: 0,
        });
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
