//! Binary persistence of a preprocessed [`DatasetIndex`].
//!
//! §2.4: preprocessing "costs are incurred once per dataset and are then
//! amortized across all subsequent queries" — which only pays off if
//! the artifacts survive the process. One format lives here:
//! [`save_index`] / [`load_index`] write and read the sectioned,
//! checksummed `SSAWIDX1` container (see `seesaw_vecstore::diskindex`
//! and `docs/index_format.md`). The built vector store is serialized
//! *structurally* as a nested blob, and loading maps the row payloads
//! zero-copy with `mmap(2)` — a cold start costs milliseconds instead
//! of a store rebuild. Errors are typed ([`PersistError`]): truncated
//! and oversized files are distinguished from checksum failures and
//! bad magic.
//!
//! Every `f32` travels as its raw IEEE-754 bit pattern
//! (`to_le_bytes`/`from_le_bytes`), so the round trip is **bit-exact**
//! for every representable value — subnormals, signed zeros, infinities
//! and NaN payloads included; no decimal formatting or parsing is ever
//! involved. `index_roundtrip_is_bit_exact_for_adversarial_floats`
//! pins this down over hostile bit patterns.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use seesaw_dataset::BBox;
use seesaw_vecstore::diskindex::{self, DiskIndexError, IndexFile, IndexFileBuilder};
use seesaw_vecstore::VectorStore;

use crate::index::{DatasetIndex, PatchMeta};
use crate::preprocess::PreprocessConfig;

/// Section kinds of the full-index container. The vecstore layer owns
/// kinds `< 100` (row payloads, IVF structure); the engine's sections
/// are namespaced at 100+ so the two kind spaces never collide inside
/// one file.
mod section {
    /// `dim, n_patches, n_images, multiscale` as little-endian u64s.
    pub const CORE_META: u32 = 100;
    /// Per patch: `image: u32, is_coarse: u32, bbox: 4 × f32` (24 B).
    pub const PATCHES: u32 = 101;
    /// Per image: `[start, end)` patch range as two u32s.
    pub const IMAGE_RANGES: u32 = 102;
    /// The embedding matrix, row-major f32.
    pub const EMBEDDINGS: u32 = 103;
    /// The built vector store as a nested `SSAWIDX1` blob
    /// (`seesaw_vecstore::diskindex::encode_store`).
    pub const STORE: u32 = 104;
}

/// Typed persistence failure: I/O, a malformed container (with
/// truncated and oversized files distinguished — see
/// [`DiskIndexError`]), or a structurally valid file whose sections
/// disagree with each other.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// Container-level failure: bad magic, truncated/oversized file,
    /// checksum mismatch, misaligned or missing section.
    Format(DiskIndexError),
    /// Sections parsed but their shapes/values are inconsistent.
    Corrupt(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index i/o error: {e}"),
            PersistError::Format(e) => write!(f, "index format error: {e}"),
            PersistError::Corrupt(what) => write!(f, "index file corrupt: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(e) => Some(e),
            PersistError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<DiskIndexError> for PersistError {
    fn from(e: DiskIndexError) -> Self {
        match e {
            DiskIndexError::Io(io) => PersistError::Io(io),
            other => PersistError::Format(other),
        }
    }
}

impl From<PersistError> for io::Error {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(io) => io,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Write the full preprocessed index — embeddings, patch layout, and
/// the *built* vector store — to `path` in the sectioned `SSAWIDX1`
/// container. Written atomically (tmp file + rename). Graph artifacts
/// (`M_D`, adjacency, coarse graph) are not persisted; [`load_index`]
/// rebuilds whichever ones its config requests.
///
/// # Errors
/// Propagates I/O errors from the filesystem.
pub fn save_index(index: &DatasetIndex, path: &Path) -> Result<(), PersistError> {
    let mut b = IndexFileBuilder::new();
    let mut meta = Vec::with_capacity(32);
    for v in [
        index.dim as u64,
        index.n_patches() as u64,
        index.n_images() as u64,
        index.multiscale as u64,
    ] {
        meta.extend_from_slice(&v.to_le_bytes());
    }
    b.section(section::CORE_META, meta);

    let mut patches = Vec::with_capacity(index.n_patches() * 24);
    for p in &index.patches {
        patches.extend_from_slice(&p.image.to_le_bytes());
        patches.extend_from_slice(&u32::from(p.is_coarse).to_le_bytes());
        for v in [p.bbox.x, p.bbox.y, p.bbox.w, p.bbox.h] {
            patches.extend_from_slice(&v.to_le_bytes());
        }
    }
    b.section(section::PATCHES, patches);

    let mut ranges = Vec::with_capacity(index.n_images() * 8);
    for &(s, e) in &index.image_patch_ranges {
        ranges.extend_from_slice(&s.to_le_bytes());
        ranges.extend_from_slice(&e.to_le_bytes());
    }
    b.section(section::IMAGE_RANGES, ranges);

    let mut embeddings = Vec::with_capacity(index.embeddings.as_slice().len() * 4);
    for &v in index.embeddings.as_slice() {
        embeddings.extend_from_slice(&v.to_le_bytes());
    }
    b.section(section::EMBEDDINGS, embeddings);

    b.section(section::STORE, diskindex::encode_store(&index.store));
    b.write_to_file(path)?;
    Ok(())
}

/// Read a full index back from `path`. The vector store is
/// reconstructed straight from the file — dense row payloads are
/// mmapped zero-copy, never rebuilt — so the cold-start cost is the
/// embedding-matrix copy plus whatever graph artifacts `config`
/// requests (none requested ⇒ milliseconds). Comes back behind `Arc`,
/// matching [`crate::Preprocessor::build`].
///
/// # Errors
/// [`PersistError::Format`] on a malformed container (truncated,
/// oversized, bad checksum…), [`PersistError::Corrupt`] when sections
/// disagree, [`PersistError::Io`] on filesystem failures.
pub fn load_index(
    path: &Path,
    config: &PreprocessConfig,
) -> Result<Arc<DatasetIndex>, PersistError> {
    let file = IndexFile::open(path)?;

    let meta = file.section_bytes(section::CORE_META)?;
    if meta.len() != 32 {
        return Err(PersistError::Corrupt("core meta has the wrong length"));
    }
    let word = |i: usize| u64::from_le_bytes(meta[i * 8..(i + 1) * 8].try_into().unwrap());
    let dim = word(0) as usize;
    let n_patches = word(1) as usize;
    let n_images = word(2) as usize;
    let multiscale = word(3) != 0;
    if dim == 0 || dim > 65_536 || n_patches < n_images {
        return Err(PersistError::Corrupt("implausible core meta"));
    }

    let patch_bytes = file.section_bytes(section::PATCHES)?;
    if patch_bytes.len() != n_patches * 24 {
        return Err(PersistError::Corrupt("patch section has the wrong length"));
    }
    let mut patches = Vec::with_capacity(n_patches);
    for rec in patch_bytes.chunks_exact(24) {
        let f = |i: usize| f32::from_le_bytes(rec[i..i + 4].try_into().unwrap());
        patches.push(PatchMeta {
            image: u32::from_le_bytes(rec[0..4].try_into().unwrap()),
            is_coarse: u32::from_le_bytes(rec[4..8].try_into().unwrap()) != 0,
            bbox: BBox::new(f(8), f(12), f(16), f(20)),
        });
    }

    let range_bytes = file.section_bytes(section::IMAGE_RANGES)?;
    if range_bytes.len() != n_images * 8 {
        return Err(PersistError::Corrupt("range section has the wrong length"));
    }
    let mut image_patch_ranges = Vec::with_capacity(n_images);
    for rec in range_bytes.chunks_exact(8) {
        let s = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let e = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        if (e as usize) > n_patches || s > e {
            return Err(PersistError::Corrupt("patch range out of bounds"));
        }
        image_patch_ranges.push((s, e));
    }
    let coarse_patches: Vec<u32> = image_patch_ranges.iter().map(|&(s, _)| s).collect();

    let emb_view = file.section_slice::<f32>(section::EMBEDDINGS)?;
    if emb_view.len() != n_patches * dim {
        return Err(PersistError::Corrupt(
            "embedding section has the wrong length",
        ));
    }
    // The one copy the cold start pays: `DenseMatrix` owns its buffer.
    // The (much larger, for compressed tiers equally sized) store row
    // payloads below stay mmapped.
    let embeddings = emb_view.to_vec();

    let store = diskindex::store_from_file(&file.nested(section::STORE)?)?;
    if store.dim() != dim || store.len() != n_patches {
        return Err(PersistError::Corrupt(
            "store shape disagrees with core meta",
        ));
    }

    let arts = crate::preprocess::build_graph_artifacts(dim, &embeddings, &coarse_patches, config);
    Ok(Arc::new(DatasetIndex {
        dim,
        embeddings: seesaw_linalg::DenseMatrix::from_vec(n_patches, dim, embeddings),
        patches,
        image_patch_ranges,
        coarse_patches,
        store,
        m_d: arts.m_d,
        patch_adjacency: arts.patch_adjacency,
        coarse_graph: arts.coarse_graph,
        multiscale,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Preprocessor;
    use seesaw_dataset::DatasetSpec;

    #[test]
    fn roundtrip_through_arc_serves_identical_sessions() {
        // The save/load cycle across the owned (`Arc<DatasetIndex>`)
        // API: saving goes through the shared handle (deref), loading
        // returns a fresh Arc, and both handles must drive sessions —
        // directly and through a SearchService — to identical batches.
        use crate::service::{Batch, SearchService};
        use crate::session::{MethodConfig, Session};
        use crate::user::SimulatedUser;

        let ds = Arc::new(
            DatasetSpec::coco_like(0.001)
                .with_max_queries(5)
                .generate(29),
        );
        let cfg = PreprocessConfig::fast();
        let index = Preprocessor::new(cfg.clone()).build(&ds);
        let dir = std::env::temp_dir().join("seesaw-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arc-roundtrip.ssawidx");
        save_index(&index, &path).unwrap();
        let loaded = load_index(&path, &cfg).unwrap();
        assert_eq!(loaded.embeddings, index.embeddings);

        let concept = ds.queries()[0].concept;
        let user = SimulatedUser::new(&ds);
        let mut direct = Session::start(&index, &ds, concept, MethodConfig::seesaw());
        let service = SearchService::new(loaded, Arc::clone(&ds));
        let id = service
            .create_session(concept, MethodConfig::seesaw())
            .unwrap();
        for _ in 0..4 {
            let a = direct.next_batch(2);
            let b = match service.next_batch(id, 2).unwrap() {
                Batch::Images(v) => v,
                Batch::Exhausted => Vec::new(),
            };
            assert_eq!(a, b, "loaded index must rank identically");
            for img in a {
                let fb = user.annotate(img, concept);
                service.feedback(id, fb.clone()).unwrap();
                direct.feedback(fb);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    mod sectioned {
        use super::*;
        use seesaw_vecstore::{RowPrecision, StoreConfig, VectorStore};

        fn tmp(name: &str) -> std::path::PathBuf {
            let dir = std::env::temp_dir().join("seesaw-persist-test");
            std::fs::create_dir_all(&dir).unwrap();
            dir.join(format!("{name}-{}.ssawidx", std::process::id()))
        }

        /// Hostile but representable f32s: NaNs with payloads, signed
        /// zeros, infinities, subnormals, and extreme magnitudes, mixed
        /// with arbitrary bit patterns.
        fn adversarial_f32(rng: &mut rand::rngs::StdRng) -> f32 {
            use rand::Rng;
            const SPECIALS: [u32; 12] = [
                0x7fc0_0001, // quiet NaN with payload
                0xffc1_2345, // negative NaN with payload
                0x7f80_0000, // +inf
                0xff80_0000, // -inf
                0x8000_0000, // -0.0
                0x0000_0000, // +0.0
                0x0000_0001, // smallest subnormal
                0x8000_0001, // smallest negative subnormal
                0x007f_ffff, // largest subnormal
                0x0080_0000, // smallest normal
                0x7f7f_ffff, // f32::MAX
                0xff7f_ffff, // f32::MIN
            ];
            if rng.gen_range(0u32..2) == 0 {
                f32::from_bits(SPECIALS[rng.gen_range(0..SPECIALS.len())])
            } else {
                f32::from_bits(rng.gen_range(0u32..u32::MAX))
            }
        }

        fn assert_identical_queries(a: &DatasetIndex, b: &DatasetIndex, q: &[f32]) {
            let ha = a.store.top_k(q, 10);
            let hb = b.store.top_k(q, 10);
            assert_eq!(ha.len(), hb.len());
            for (x, y) in ha.iter().zip(&hb) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }

        #[test]
        fn index_roundtrip_preserves_everything_and_serves_identically() {
            let ds = DatasetSpec::coco_like(0.001)
                .with_max_queries(5)
                .generate(7);
            let cfg = PreprocessConfig::fast();
            let index = Preprocessor::new(cfg.clone()).build(&ds);
            let path = tmp("full-roundtrip");
            save_index(&index, &path).unwrap();
            let loaded = load_index(&path, &cfg).unwrap();
            assert_eq!(loaded.dim, index.dim);
            assert_eq!(loaded.embeddings, index.embeddings);
            assert_eq!(loaded.patches, index.patches);
            assert_eq!(loaded.image_patch_ranges, index.image_patch_ranges);
            assert_eq!(loaded.coarse_patches, index.coarse_patches);
            assert_eq!(loaded.multiscale, index.multiscale);
            assert_eq!(loaded.m_d.is_some(), index.m_d.is_some());
            assert_eq!(
                loaded.patch_adjacency.is_some(),
                index.patch_adjacency.is_some()
            );
            let q = ds.model.embed_text(ds.queries()[0].concept);
            assert_identical_queries(&index, &loaded, &q);
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn index_roundtrip_covers_every_backend_and_precision() {
            let ds = DatasetSpec::coco_like(0.001)
                .with_max_queries(4)
                .generate(13);
            let q = ds.model.embed_text(ds.queries()[0].concept);
            let configs = [
                StoreConfig::exact(),
                StoreConfig::exact().with_precision(RowPrecision::F16),
                StoreConfig::exact().with_precision(RowPrecision::Sq8),
                StoreConfig::exact()
                    .with_precision(RowPrecision::Sq8)
                    .with_shards(3),
                StoreConfig::default(),
                StoreConfig::ivf(seesaw_vecstore::IvfConfig::default())
                    .with_precision(RowPrecision::Sq8),
                StoreConfig::exact().with_precision(RowPrecision::Pq { m: 16, nbits: 8 }),
                StoreConfig::ivf(seesaw_vecstore::IvfConfig::default())
                    .with_precision(RowPrecision::Pq { m: 16, nbits: 8 })
                    .with_rerank_factor(6),
            ];
            for (i, store_cfg) in configs.into_iter().enumerate() {
                // Graphs off: this test is about the store round trip.
                let mut cfg = PreprocessConfig::fast().with_store(store_cfg);
                cfg.build_db_matrix = false;
                cfg.build_propagation = false;
                cfg.build_coarse_graph = false;
                let index = Preprocessor::new(cfg.clone()).build(&ds);
                let path = tmp(&format!("backend-{i}"));
                save_index(&index, &path).unwrap();
                let loaded = load_index(&path, &cfg).unwrap();
                assert_eq!(loaded.store.len(), index.store.len(), "config {i}");
                assert_identical_queries(&index, &loaded, &q);
                std::fs::remove_file(&path).ok();
            }
        }

        #[test]
        fn truncated_and_oversized_index_files_are_typed_errors() {
            let ds = DatasetSpec::coco_like(0.0).with_max_queries(3).generate(3);
            let mut cfg = PreprocessConfig::fast();
            cfg.build_db_matrix = false;
            cfg.build_propagation = false;
            cfg.build_coarse_graph = false;
            let index = Preprocessor::new(cfg.clone()).build(&ds);
            let path = tmp("typed-errors");
            save_index(&index, &path).unwrap();
            let full = std::fs::read(&path).unwrap();

            std::fs::write(&path, &full[..full.len() - 7]).unwrap();
            assert!(matches!(
                load_index(&path, &cfg),
                Err(PersistError::Format(DiskIndexError::Truncated { .. }))
            ));

            let mut long = full.clone();
            long.extend_from_slice(&[0u8; 3]);
            std::fs::write(&path, &long).unwrap();
            assert!(matches!(
                load_index(&path, &cfg),
                Err(PersistError::Format(DiskIndexError::Oversized { .. }))
            ));

            std::fs::write(&path, b"garbage, not an index").unwrap();
            assert!(matches!(
                load_index(&path, &cfg),
                Err(PersistError::Format(DiskIndexError::BadMagic))
            ));
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn index_roundtrip_is_bit_exact_for_adversarial_floats() {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let dim = 4usize;
            let mut rng = StdRng::seed_from_u64(99);
            let n_images = 4usize;
            let embeddings: Vec<f32> = (0..n_images * dim)
                .map(|_| adversarial_f32(&mut rng))
                .collect();
            let patches: Vec<PatchMeta> = (0..n_images)
                .map(|i| PatchMeta {
                    image: i as u32,
                    bbox: BBox::new(
                        adversarial_f32(&mut rng),
                        adversarial_f32(&mut rng),
                        adversarial_f32(&mut rng),
                        adversarial_f32(&mut rng),
                    ),
                    is_coarse: true,
                })
                .collect();
            let ranges: Vec<(u32, u32)> = (0..n_images as u32).map(|i| (i, i + 1)).collect();
            let mut cfg = PreprocessConfig::fast().with_store(StoreConfig::exact());
            cfg.build_db_matrix = false;
            cfg.build_propagation = false;
            cfg.build_coarse_graph = false;
            let index = crate::preprocess::rebuild_from_embeddings(
                dim,
                embeddings.clone(),
                patches,
                ranges,
                false,
                &cfg,
            );
            let path = tmp("adversarial-sectioned");
            save_index(&index, &path).unwrap();
            let loaded = load_index(&path, &cfg).unwrap();
            std::fs::remove_file(&path).ok();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(loaded.embeddings.as_slice()),
                bits(index.embeddings.as_slice())
            );
            for (l, o) in loaded.patches.iter().zip(&index.patches) {
                let lb = [l.bbox.x, l.bbox.y, l.bbox.w, l.bbox.h];
                let ob = [o.bbox.x, o.bbox.y, o.bbox.w, o.bbox.h];
                assert_eq!(bits(&lb), bits(&ob));
            }
        }
    }
}
