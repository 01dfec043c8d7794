//! Dataset specification, generation, and the four paper presets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Poisson, Zipf};
use seesaw_embed::{ConceptSpec, EmbedConfig, EmbeddingModel};

use crate::geometry::BBox;
use crate::scene::{Annotation, ImageMeta};
use crate::truth::{GroundTruth, Query};

/// Mixture describing per-concept text *alignment deficits*.
///
/// A concept is "easy" with probability `easy_frac`; easy concepts get a
/// deficit angle uniform in `easy_range`, the rest in `hard_range`
/// (radians). The preset values are tuned so the fraction of hard
/// zero-shot queries matches Fig. 1 of the paper.
#[derive(Clone, Copy, Debug)]
pub struct DeficitMix {
    /// Probability a concept is easy for zero-shot CLIP.
    pub easy_frac: f64,
    /// Deficit-angle range (radians) for easy concepts.
    pub easy_range: (f32, f32),
    /// Deficit-angle range (radians) for hard concepts.
    pub hard_range: (f32, f32),
}

/// Mixture describing per-concept *locality deficits* (Fig. 2b).
#[derive(Clone, Copy, Debug)]
pub struct LocalityMix {
    /// Probability a concept is diffuse (multi-modal in embedding space).
    pub diffuse_frac: f64,
    /// Mode-count range for diffuse concepts (inclusive).
    pub modes_range: (u32, u32),
    /// Angular spread range (radians) of diffuse concepts' modes.
    pub spread_range: (f32, f32),
}

/// Full recipe for one synthetic dataset.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Human-readable name ("coco-like", …).
    pub name: String,
    /// Number of images to generate.
    pub n_images: usize,
    /// Embedding dimension (paper: 512; smaller keeps tests fast).
    pub dim: usize,
    /// Vocabulary size (number of categories).
    pub n_concepts: usize,
    /// Number of background contexts (scene types).
    pub n_contexts: usize,
    /// Candidate image sizes, sampled uniformly.
    pub image_sizes: Vec<(u32, u32)>,
    /// Mean annotated objects per image (Poisson), ignored when
    /// `fixed_objects` is set.
    pub mean_objects: f64,
    /// Hard cap on objects per image.
    pub max_objects: usize,
    /// Exactly this many objects per image (ObjectNet has exactly one
    /// centered subject).
    pub fixed_objects: Option<usize>,
    /// Center the (single) object with small jitter, ObjectNet-style.
    pub centered: bool,
    /// Zipf exponent for category popularity (higher ⇒ longer rarity
    /// tail, LVIS-style).
    pub zipf_exponent: f64,
    /// Object side length as a fraction of `min(width, height)`,
    /// sampled uniformly from this range.
    pub object_size_range: (f32, f32),
    /// Alignment-deficit mixture.
    pub deficits: DeficitMix,
    /// Locality-deficit mixture.
    pub locality: LocalityMix,
    /// Embedding noise magnitude.
    pub noise_sigma: f32,
    /// Per-instance jitter angle (radians) — idiosyncratic offset of
    /// each object instance from its category direction.
    pub instance_jitter: f32,
    /// Background strength in patch embeddings.
    pub clutter_strength: f32,
    /// Salience exponent (see `seesaw_embed::EmbedConfig`).
    pub salience: f32,
    /// A concept becomes a benchmark query only with at least this many
    /// relevant images.
    pub min_query_instances: usize,
    /// Cap on the number of benchmark queries (0 = no cap).
    pub max_queries: usize,
}

impl DatasetSpec {
    /// COCO-like: 80 categories, web-style images, mostly easy queries
    /// (Fig. 1: only .06 of queries are hard), several medium objects
    /// per image. Base size 120 000 images × `scale`.
    pub fn coco_like(scale: f64) -> Self {
        Self {
            name: "coco-like".into(),
            n_images: scaled(120_000, scale),
            dim: 128,
            n_concepts: 80,
            n_contexts: 8,
            image_sizes: vec![(640, 480), (800, 600), (1024, 768)],
            mean_objects: 2.9,
            max_objects: 8,
            fixed_objects: None,
            centered: false,
            zipf_exponent: 0.9,
            object_size_range: (0.25, 0.7),
            deficits: DeficitMix {
                easy_frac: 0.92,
                easy_range: (0.05, 0.55),
                hard_range: (1.05, 1.45),
            },
            locality: LocalityMix {
                diffuse_frac: 0.05,
                modes_range: (2, 3),
                spread_range: (0.5, 0.9),
            },
            noise_sigma: 0.12,
            instance_jitter: 0.45,
            clutter_strength: 0.9,
            salience: 0.5,
            min_query_instances: 3,
            max_queries: 80,
        }
    }

    /// LVIS-like: large vocabulary with a strong rarity tail, many
    /// smaller objects per image (LVIS densely annotates the COCO
    /// images), a long tail of hard queries (.38 in Fig. 1).
    pub fn lvis_like(scale: f64) -> Self {
        Self {
            name: "lvis-like".into(),
            n_images: scaled(120_000, scale),
            dim: 128,
            n_concepts: 350,
            n_contexts: 8,
            image_sizes: vec![(640, 480), (800, 600), (1024, 768)],
            mean_objects: 6.5,
            max_objects: 16,
            fixed_objects: None,
            centered: false,
            zipf_exponent: 1.15,
            object_size_range: (0.09, 0.45),
            deficits: DeficitMix {
                easy_frac: 0.78,
                easy_range: (0.05, 0.6),
                hard_range: (0.95, 1.5),
            },
            locality: LocalityMix {
                diffuse_frac: 0.12,
                modes_range: (2, 4),
                spread_range: (0.5, 1.1),
            },
            noise_sigma: 0.12,
            instance_jitter: 0.45,
            clutter_strength: 0.9,
            salience: 0.5,
            min_query_instances: 3,
            max_queries: 300,
        }
    }

    /// ObjectNet-like: 300 categories, fixed 224×224 images with exactly
    /// one intentionally centered object — so multiscale brings no
    /// benefit (§5.3) — and a .33 hard fraction (Fig. 1). Base size
    /// 50 000 images; the vocabulary shrinks with `scale` to preserve
    /// ObjectNet's ~170 instances-per-category density (at full scale
    /// it is the paper's 300 categories).
    pub fn objectnet_like(scale: f64) -> Self {
        let n_images = scaled(50_000, scale);
        let n_concepts = ((n_images as f64 / 150.0).round() as usize).clamp(20, 300);
        Self {
            name: "objectnet-like".into(),
            n_images,
            dim: 128,
            n_concepts,
            n_contexts: 6,
            image_sizes: vec![(224, 224)],
            mean_objects: 1.0,
            max_objects: 1,
            fixed_objects: Some(1),
            centered: true,
            zipf_exponent: 0.35,
            object_size_range: (0.5, 0.9),
            deficits: DeficitMix {
                easy_frac: 0.67,
                easy_range: (0.05, 0.6),
                hard_range: (0.95, 1.5),
            },
            locality: LocalityMix {
                diffuse_frac: 0.10,
                modes_range: (2, 3),
                spread_range: (0.5, 1.0),
            },
            noise_sigma: 0.12,
            instance_jitter: 0.45,
            clutter_strength: 0.5,
            salience: 0.5,
            min_query_instances: 3,
            max_queries: 300,
        }
    }

    /// BDD-like: dash-cam frames — few categories, large images, many
    /// *small* objects (the multiscale motivation: "wheelchairs and
    /// animals often occupy just a few tens of pixels"), some very rare
    /// categories, .25 hard fraction (3/12 in Fig. 1). Base size
    /// 80 000 images.
    pub fn bdd_like(scale: f64) -> Self {
        Self {
            name: "bdd-like".into(),
            n_images: scaled(80_000, scale),
            dim: 128,
            n_concepts: 12,
            n_contexts: 4,
            image_sizes: vec![(1280, 720)],
            mean_objects: 7.0,
            max_objects: 18,
            fixed_objects: None,
            centered: false,
            zipf_exponent: 1.3,
            object_size_range: (0.04, 0.22),
            deficits: DeficitMix {
                easy_frac: 0.60,
                easy_range: (0.05, 0.5),
                hard_range: (1.05, 1.5),
            },
            locality: LocalityMix {
                diffuse_frac: 0.08,
                modes_range: (2, 3),
                spread_range: (0.5, 0.9),
            },
            noise_sigma: 0.08,
            instance_jitter: 0.45,
            clutter_strength: 1.0,
            salience: 0.5,
            min_query_instances: 3,
            max_queries: 12,
        }
    }

    /// All four presets at the given scale, in the paper's column order
    /// (LVIS, ObjectNet, COCO, BDD).
    pub fn paper_suite(scale: f64) -> Vec<Self> {
        vec![
            Self::lvis_like(scale),
            Self::objectnet_like(scale),
            Self::coco_like(scale),
            Self::bdd_like(scale),
        ]
    }

    /// Override the embedding dimension (builder style).
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Override the query cap (builder style).
    pub fn with_max_queries(mut self, n: usize) -> Self {
        self.max_queries = n;
        self
    }

    /// Generate the dataset deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> SyntheticDataset {
        assert!(self.n_images > 0, "dataset must contain images");
        assert!(self.n_concepts > 0, "dataset needs a vocabulary");
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(&self.name));

        // Per-concept difficulty specs from the two mixtures.
        let concepts: Vec<ConceptSpec> = (0..self.n_concepts)
            .map(|_| {
                let deficit_angle = if rng.gen_bool(self.deficits.easy_frac) {
                    rng.gen_range(self.deficits.easy_range.0..=self.deficits.easy_range.1)
                } else {
                    rng.gen_range(self.deficits.hard_range.0..=self.deficits.hard_range.1)
                };
                let (modes, mode_spread) = if rng.gen_bool(self.locality.diffuse_frac) {
                    (
                        rng.gen_range(self.locality.modes_range.0..=self.locality.modes_range.1),
                        rng.gen_range(self.locality.spread_range.0..=self.locality.spread_range.1),
                    )
                } else {
                    (1, 0.0)
                };
                ConceptSpec {
                    deficit_angle,
                    modes,
                    mode_spread,
                }
            })
            .collect();

        let model = EmbeddingModel::build(&EmbedConfig {
            dim: self.dim,
            concepts,
            contexts: self.n_contexts,
            noise_sigma: self.noise_sigma,
            instance_jitter: self.instance_jitter,
            clutter_strength: self.clutter_strength,
            salience: self.salience,
            seed: seed ^ 0x00e1_13ed,
        });

        let zipf =
            Zipf::new(self.n_concepts as u64, self.zipf_exponent).expect("valid zipf parameters");
        let poisson = Poisson::new(self.mean_objects.max(1e-9)).expect("valid poisson mean");

        let mut images = Vec::with_capacity(self.n_images);
        let mut next_instance = 0u32;
        for id in 0..self.n_images {
            let (width, height) = self.image_sizes[rng.gen_range(0..self.image_sizes.len())];
            let context = rng.gen_range(0..self.n_contexts as u32);
            let n_objects = match self.fixed_objects {
                Some(k) => k,
                None => (poisson.sample(&mut rng) as usize).min(self.max_objects),
            };
            let min_dim = width.min(height) as f32;
            let mut objects = Vec::with_capacity(n_objects);
            for _ in 0..n_objects {
                let concept = (zipf.sample(&mut rng) as u32).saturating_sub(1);
                let modes = model.n_modes(concept);
                let mode = if modes > 1 {
                    rng.gen_range(0..modes)
                } else {
                    0
                };
                let side =
                    min_dim * rng.gen_range(self.object_size_range.0..=self.object_size_range.1);
                let aspect: f32 = rng.gen_range(0.75..1.33);
                let bw = (side * aspect).min(width as f32);
                let bh = (side / aspect).min(height as f32);
                let (x, y) = if self.centered {
                    // Centered with a little jitter, ObjectNet-style.
                    let jx = (width as f32 - bw) * rng.gen_range(0.35..0.65);
                    let jy = (height as f32 - bh) * rng.gen_range(0.35..0.65);
                    (jx, jy)
                } else {
                    (
                        rng.gen_range(0.0..=(width as f32 - bw).max(0.0)),
                        rng.gen_range(0.0..=(height as f32 - bh).max(0.0)),
                    )
                };
                objects.push(Annotation {
                    concept,
                    mode,
                    instance: next_instance,
                    bbox: BBox::new(x, y, bw, bh),
                });
                next_instance = next_instance.wrapping_add(1);
            }
            images.push(ImageMeta {
                id: id as u32,
                width,
                height,
                context,
                objects,
            });
        }

        let truth = GroundTruth::build(&images, self.n_concepts);
        let queries = truth.select_queries(self.min_query_instances, self.max_queries, seed);

        SyntheticDataset {
            name: self.name.clone(),
            images,
            model,
            truth,
            queries,
        }
    }
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(60)
}

/// Cheap deterministic FNV-1a hash of the dataset name, mixed into the
/// seed so the four presets differ even with the same user seed.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A generated dataset: images, their embedding model, ground truth,
/// and the benchmark query list.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// Preset name.
    pub name: String,
    /// All images.
    pub images: Vec<ImageMeta>,
    /// The embedding model shared by preprocessing and querying.
    pub model: EmbeddingModel,
    /// Per-concept relevance ground truth.
    pub truth: GroundTruth,
    queries: Vec<Query>,
}

impl SyntheticDataset {
    /// Number of images.
    pub fn n_images(&self) -> usize {
        self.images.len()
    }

    /// The benchmark queries (concepts with enough relevant images).
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The image with the given id.
    pub fn image(&self, id: crate::ImageId) -> &ImageMeta {
        &self.images[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::coco_like(0.002);
        let a = spec.generate(1);
        let b = spec.generate(1);
        assert_eq!(a.images, b.images);
        assert_eq!(a.queries(), b.queries());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = DatasetSpec::coco_like(0.002);
        let a = spec.generate(1);
        let b = spec.generate(2);
        assert_ne!(a.images, b.images);
    }

    #[test]
    fn objects_stay_inside_images() {
        for spec in DatasetSpec::paper_suite(0.002) {
            let ds = spec.generate(3);
            for img in &ds.images {
                for o in &img.objects {
                    assert!(o.bbox.x >= 0.0 && o.bbox.y >= 0.0, "{}", ds.name);
                    assert!(
                        o.bbox.x + o.bbox.w <= img.width as f32 + 0.5,
                        "{} object exceeds width",
                        ds.name
                    );
                    assert!(
                        o.bbox.y + o.bbox.h <= img.height as f32 + 0.5,
                        "{} object exceeds height",
                        ds.name
                    );
                }
            }
        }
    }

    #[test]
    fn objectnet_preset_matches_signature() {
        let ds = DatasetSpec::objectnet_like(0.005).generate(4);
        for img in &ds.images {
            assert_eq!(img.width, 224);
            assert_eq!(img.height, 224);
            assert_eq!(img.objects.len(), 1);
        }
    }

    #[test]
    fn bdd_preset_has_large_images_and_small_objects() {
        let ds = DatasetSpec::bdd_like(0.005).generate(4);
        let mut sizes = Vec::new();
        for img in &ds.images {
            assert_eq!((img.width, img.height), (1280, 720));
            for o in &img.objects {
                sizes.push(o.bbox.area() / (img.width as f32 * img.height as f32));
            }
        }
        let mean_frac = sizes.iter().sum::<f32>() / sizes.len().max(1) as f32;
        assert!(mean_frac < 0.05, "objects should be small, got {mean_frac}");
    }

    #[test]
    fn queries_have_min_instances() {
        let spec = DatasetSpec::lvis_like(0.003);
        let ds = spec.generate(5);
        assert!(!ds.queries().is_empty());
        for q in ds.queries() {
            assert!(q.n_relevant >= spec.min_query_instances);
            assert_eq!(
                ds.truth.relevant_images(q.concept).len(),
                q.n_relevant,
                "query bookkeeping must match truth"
            );
        }
    }

    #[test]
    fn zipf_tail_creates_rare_concepts() {
        let ds = DatasetSpec::bdd_like(0.01).generate(6);
        let counts: Vec<usize> = (0..12).map(|c| ds.truth.relevant_images(c).len()).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > min * 3, "popularity spread too flat: {counts:?}");
    }

    #[test]
    fn minimum_size_floor_applies() {
        let ds = DatasetSpec::coco_like(0.0).generate(1);
        assert!(ds.n_images() >= 60);
    }
}
